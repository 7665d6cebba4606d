"""Fusion-graph infrastructure.

The graphs here are directed, three-colourable multigraphs whose
adjacency matrix has Perron-Frobenius eigenvalue [3] at the graph's
Coxeter number.  ``build_A`` constructs the truncated dominant-weight
triangle; other graphs can be loaded from JSON.

A cell system attaches a complex weight to every closed three-edge loop.
The weights must satisfy two frame equations, read off from the local
diagram reductions (digon and square) under the dictionary that sends a
trivalent vertex to its cell and a cup or cap to a geometric mean of
vertex weights:

* type I: for edges u, v with the same endpoints,
  sum over completions (a, b) of W(u,a,b) conj(W(v,a,b))
  = delta_{u,v} [2] phi_s phi_r;
* type II: the square relation, enforced operator-style -- the
  Boltzmann operators built from the cells must satisfy the braid-type
  relation U_i U_{i+1} U_i - U_i = U_{i+1} U_i U_{i+1} - U_{i+1}.

Cells are found numerically by least squares with restarts; correctness
is certified by residuals only (the gauge is arbitrary).
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

import numpy as np
from scipy.optimize import least_squares

__all__ = [
    "FusionGraph",
    "build_A",
    "pf_eigen",
    "triangles",
    "solve_cells",
    "CellSystem",
    "boltzmann_U",
    "type_I_residual",
    "hecke_operator",
    "path_space",
    "qnum",
]


def qnum(m: int, n: int) -> float:
    """Quantum integer [m] at q = exp(i pi / n)."""
    return math.sin(m * math.pi / n) / math.sin(math.pi / n)


class FusionGraph:
    """Directed graph with coloured vertices and a distinguished vertex.

    ``phi``, the Perron-Frobenius weights, is computed on first use and
    kept; the graph must not change afterwards.
    """

    def __init__(self, vertices, colour, edges, star, n, name=""):
        self.vertices = list(vertices)
        self.colour = dict(colour)
        self.edges = list(edges)  # list of (u, v); index = edge id
        self.star = star
        self.n = n
        self.name = name
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.out_edges = {v: [] for v in self.vertices}
        self.in_edges = {v: [] for v in self.vertices}
        for k, (u, v) in enumerate(self.edges):
            self.out_edges[u].append(k)
            self.in_edges[v].append(k)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((len(self.vertices), len(self.vertices)), dtype=int)
        for u, v in self.edges:
            a[self._vindex[u], self._vindex[v]] += 1
        return a

    def colour_block(self, c1: int, c2: int) -> np.ndarray:
        """Adjacency restricted to edges from colour ``c1`` to colour ``c2``."""
        rows = [v for v in self.vertices if self.colour[v] == c1]
        cols = [v for v in self.vertices if self.colour[v] == c2]
        ri = {v: i for i, v in enumerate(rows)}
        ci = {v: i for i, v in enumerate(cols)}
        a = np.zeros((len(rows), len(cols)), dtype=int)
        for u, v in self.edges:
            if u in ri and v in ci:
                a[ri[u], ci[v]] += 1
        return a

    @cached_property
    def phi(self) -> dict:
        return pf_eigen(self)

    def source(self, e: int):
        return self.edges[e][0]

    def range(self, e: int):
        return self.edges[e][1]

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": _vid(v), "colour": self.colour[v]} for v in self.vertices
            ],
            "edges": [[_vid(u), _vid(v)] for u, v in self.edges],
            "star": _vid(self.star),
            "n": self.n,
        }

    @staticmethod
    def from_json(obj: dict) -> "FusionGraph":
        verts = [v["id"] for v in obj["vertices"]]
        colour = {v["id"]: v["colour"] for v in obj["vertices"]}
        edges = [(u, v) for u, v in obj["edges"]]
        return FusionGraph(verts, colour, edges, obj["star"], obj["n"])


def _vid(v) -> str:
    if isinstance(v, tuple):
        return f"{v[0]},{v[1]}"
    return str(v)


def build_A(n: int) -> FusionGraph:
    """Truncated dominant-weight graph at Coxeter number ``n``.

    Vertices are weights (a, b) with a + b <= n - 3; edges add (1,0),
    (-1,1) or (0,-1); colour is (a - b) mod 3; the distinguished vertex
    is (0,0).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    verts = [
        (a, b) for a in range(n - 2) for b in range(n - 2) if a + b <= n - 3
    ]
    vset = set(verts)
    colour = {v: (v[0] - v[1]) % 3 for v in verts}
    edges = []
    for a, b in verts:
        for da, db in ((1, 0), (-1, 1), (0, -1)):
            w = (a + da, b + db)
            if w in vset:
                edges.append(((a, b), w))
    return FusionGraph(verts, colour, edges, (0, 0), n, name=f"A{n}")


def pf_eigen(g: FusionGraph) -> dict:
    """Positive eigenvector of the adjacency matrix, normalized at ``star``.

    For the weight-lattice graphs the entries are computed in closed
    form, phi_(a,b) = [a+1][b+1][a+b+2]/[2]; for any graph they are
    cross-checked against (or, for JSON graphs, obtained from) a dense
    eigensolve.  The eigenvalue must be [3] to 1e-12.
    """
    n = g.n
    adj = g.adjacency()
    w, vecs = np.linalg.eig(adj.T.astype(float))
    k = int(np.argmax(w.real))
    lam = w[k].real
    vec = vecs[:, k].real
    vec = vec / vec[g._vindex[g.star]]
    if abs(lam - qnum(3, n)) > 1e-9:
        raise ValueError("Perron-Frobenius eigenvalue is not [3]")
    phi = {v: float(vec[g._vindex[v]]) for v in g.vertices}
    if all(isinstance(v, tuple) for v in g.vertices):
        closed = {
            (a, b): qnum(a + 1, n) * qnum(b + 1, n) * qnum(a + b + 2, n) / qnum(2, n)
            for a, b in g.vertices
        }
        if max(abs(closed[v] - phi[v]) for v in g.vertices) > 1e-9:
            raise ValueError("closed-form eigenvector disagrees with eigensolve")
        phi = closed
    res = max(
        abs(sum(phi[g.range(e)] for e in g.out_edges[v]) - qnum(3, n) * phi[v])
        for v in g.vertices
    )
    if res > 1e-10:
        raise ValueError(f"eigen-residual {res:.2e}")
    return phi


def triangles(g: FusionGraph) -> list[tuple[int, int, int]]:
    """All closed three-edge loops, one representative per cyclic class."""
    seen = set()
    out = []
    for e1 in range(len(g.edges)):
        for e2 in g.out_edges[g.range(e1)]:
            for e3 in g.out_edges[g.range(e2)]:
                if g.range(e3) != g.source(e1):
                    continue
                rots = [(e1, e2, e3), (e2, e3, e1), (e3, e1, e2)]
                key = min(rots)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
    return sorted(out)


class CellSystem:
    """Complex weight per closed three-edge loop, with residual report.

    The Boltzmann operator ``U`` is built on first use and kept, and
    ``connections`` keeps each parity's connection once
    ``pathalg.connection`` has built it; ``values`` must not change
    afterwards.
    """

    def __init__(self, g: FusionGraph, values: dict, residual: float):
        self.graph = g
        self.values = dict(values)  # canonical triangle -> complex
        self.residual = residual
        self.connections: dict = {}  # parity -> pathalg.Connection

    @cached_property
    def U(self) -> dict:
        return boltzmann_U(self.graph, self, self.graph.phi)

    def W(self, e1: int, e2: int, e3: int) -> complex:
        key = min([(e1, e2, e3), (e2, e3, e1), (e3, e1, e2)])
        return self.values.get(key, 0.0 + 0.0j)


def type_I_residual(g: FusionGraph, phi: dict, cells: CellSystem, n: int) -> float:
    """Max deviation of the digon frame equation.

    For any edges u, v sharing source and range:
    sum_{a,b closing the loop} W(u,a,b) conj(W(v,a,b))
    = delta_{u,v} [2] phi_source phi_range.
    """
    d = qnum(2, n)
    worst = 0.0
    for u in range(len(g.edges)):
        for v in range(len(g.edges)):
            if g.edges[u][0] != g.edges[v][0] or g.edges[u][1] != g.edges[v][1]:
                continue
            s = 0.0 + 0.0j
            for a in g.out_edges[g.range(u)]:
                for b in g.out_edges[g.range(a)]:
                    if g.range(b) != g.source(u):
                        continue
                    s += cells.W(u, a, b) * cells.W(v, a, b).conjugate()
            want = d * phi[g.source(u)] * phi[g.range(u)] if u == v else 0.0
            worst = max(worst, abs(s - want))
    return worst


def path_space(g: FusionGraph, start, length: int) -> list[tuple[int, ...]]:
    """All edge paths of the given length from ``start``."""
    paths = [()]
    frontier = {(): start}
    for _ in range(length):
        nxt = []
        nf = {}
        for p in paths:
            v = frontier[p]
            for e in g.out_edges[v]:
                q = p + (e,)
                nxt.append(q)
                nf[q] = g.range(e)
        paths, frontier = nxt, nf
    return paths


def boltzmann_U(g: FusionGraph, cells: CellSystem, phi: dict):
    """Pairwise operator: U[(r1,r2),(r3,r4)] over length-2 edge paths.

    U^{r1 r2}_{r3 r4} = sum_l phi_{s(r1)}^{-1} phi_{r(r2)}^{-1}
    W(l, r3, r4) conj(W(l, r1, r2)).
    """
    ne = len(g.edges)
    U: dict[tuple[tuple[int, int], tuple[int, int]], complex] = {}
    for r1 in range(ne):
        for r2 in g.out_edges[g.range(r1)]:
            for lam in g.in_edges[g.source(r1)]:
                if g.source(lam) != g.range(r2):
                    continue
                wbar = cells.W(lam, r1, r2).conjugate()
                if wbar == 0:
                    continue
                norm = 1.0 / (phi[g.source(r1)] * phi[g.range(r2)])
                for r3 in g.out_edges[g.source(r1)]:
                    for r4 in g.out_edges[g.range(r3)]:
                        if g.range(r4) != g.range(r2):
                            continue
                        w = cells.W(lam, r3, r4)
                        if w == 0:
                            continue
                        key = ((r1, r2), (r3, r4))
                        U[key] = U.get(key, 0.0 + 0.0j) + norm * w * wbar
    return U


def hecke_operator(
    g: FusionGraph, cells: CellSystem, start, length: int, i: int
) -> np.ndarray:
    """U_i acting on edge paths of ``length`` steps from ``start``.

    The operator replaces steps i, i+1 (0-based) of the path using the
    Boltzmann weights and leaves the rest untouched.
    """
    paths = path_space(g, start, length)
    index = {p: k for k, p in enumerate(paths)}
    m = np.zeros((len(paths), len(paths)), dtype=complex)
    for p, k in index.items():
        r1, r2 = p[i], p[i + 1]
        for ((a1, a2), (b1, b2)), val in cells.U.items():
            if (a1, a2) != (r1, r2):
                continue
            q = p[:i] + (b1, b2) + p[i + 2 :]
            if q in index:
                m[index[q], k] += val
    return m


def solve_cells(g: FusionGraph, tol: float = 1e-10, seed: int = 0) -> CellSystem:
    """Find cell weights satisfying both frame equations.

    Least squares over real and imaginary parts of one weight per
    triangle; the objective stacks the type I (digon) equations and the
    braid-type relation of the operators built from the weights (the
    square relation).  Up to 12 randomized restarts; raises if no run
    reaches ``tol``.
    """
    n = g.n
    tris = triangles(g)
    if not tris:
        return CellSystem(g, {}, 0.0)
    phi = g.phi
    rng = np.random.default_rng(seed)
    d = qnum(2, n)

    def unpack(x):
        vals = {
            t: complex(x[2 * k], x[2 * k + 1]) for k, t in enumerate(tris)
        }
        return CellSystem(g, vals, 0.0)

    # precompute the type-I frame list
    frames = []
    for u in range(len(g.edges)):
        for v in range(u, len(g.edges)):
            if g.edges[u][0] != g.edges[v][0] or g.edges[u][1] != g.edges[v][1]:
                continue
            comp = [
                (a, b)
                for a in g.out_edges[g.range(u)]
                for b in g.out_edges[g.range(a)]
                if g.range(b) == g.source(u)
            ]
            frames.append((u, v, comp))

    plen = 3
    paths3 = path_space(g, g.star, plen)

    def objective(x):
        cells = unpack(x)
        res = []
        for u, v, comp in frames:
            s = sum(cells.W(u, a, b) * cells.W(v, a, b).conjugate() for a, b in comp)
            want = d * phi[g.source(u)] * phi[g.range(u)] if u == v else 0.0
            res.append((s - want).real)
            res.append((s - want).imag)
        if paths3:
            u1 = hecke_operator(g, cells, g.star, plen, 0)
            u2 = hecke_operator(g, cells, g.star, plen, 1)
            braid = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
            res.extend(braid.real.ravel())
            res.extend(braid.imag.ravel())
        return np.array(res)

    best = None
    for _ in range(12):
        x0 = rng.normal(scale=1.0, size=2 * len(tris))
        sol = least_squares(objective, x0, method="lm", xtol=1e-15, ftol=1e-15)
        resid = float(np.max(np.abs(objective(sol.x)))) if sol.x is not None else np.inf
        if best is None or resid < best[0]:
            best = (resid, sol.x)
        if resid < tol:
            break
    resid, x = best
    if resid > tol:
        raise ValueError(f"cell solver stalled at residual {resid:.2e}")
    cells = unpack(x)
    cells.residual = resid
    return cells
