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

On the weight-lattice graphs A(n) the cells have a closed form
(Evans-Pugh, arXiv:0906.4307), a real positive weight per triangle.  Any
other graph, such as one loaded from JSON, gets its cells numerically, by
``least_squares``, a short Levenberg-Marquardt in numpy, with restarts
from a fixed seed, so the same graph always gets the same cells.  Its
objective is compiled once per solve into numpy index arrays (triangle
of each cell rotation, frame terms, Boltzmann entries, Hecke-matrix
entries), so an evaluation is a few gathers and scatters.  Either way
the cells are certified by residuals only (the gauge is arbitrary): they
are checked through the slow route, ``type_I_residual`` and the braid
relation of ``hecke_operator`` on ``cells.U``.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "FusionGraph",
    "build_A",
    "pf_eigen",
    "triangles",
    "solve_cells",
    "UncertifiedCells",
    "CellSystem",
    "boltzmann_U",
    "type_I_residual",
    "hecke_operator",
    "path_space",
    "qnum",
]


class Fit(NamedTuple):
    """Result of ``least_squares``: the point reached and the number of
    objective evaluations, Jacobian columns included."""

    x: np.ndarray
    nfev: int


def least_squares(fun, x0, xtol: float = 1e-15, ftol: float = 1e-15) -> Fit:
    """Minimize ``sum(fun(x)**2)`` by Levenberg-Marquardt from ``x0``.

    The Jacobian is a forward difference with step 1.5e-8 max(1, |x_i|).
    The damping mu follows the gain ratio rho of each step (Nielsen):
    mu *= max(1/3, 1 - (2 rho - 1)^3) on an accepted step, mu *= nu and
    nu *= 2 on a rejected one.  It stops once an accepted step lowers the
    squared residual by at most ``ftol`` of itself, once a step (accepted
    or not) is at most ``xtol`` of |x|, or after 100 (len(x0) + 1)
    evaluations.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    nfev, budget = 1, 100 * (len(x) + 1)
    jac, mu, nu = None, None, 2.0
    while nfev < budget:
        if jac is None:  # at the start and after each accepted step
            jac = np.empty((len(f), len(x)))
            for i in range(len(x)):
                xi = x.copy()
                xi[i] += 1.5e-8 * max(1.0, abs(x[i]))
                jac[:, i] = (fun(xi) - f) / (xi[i] - x[i])
            nfev += len(x)
            a, g, cost = jac.T @ jac, jac.T @ f, float(f @ f)
            if mu is None:
                mu = 1e-3 * float(np.max(np.diag(a)))
        step = np.linalg.solve(a + mu * np.eye(len(x)), -g)
        if np.linalg.norm(step) <= xtol * np.linalg.norm(x):
            break
        f_new = fun(x + step)
        nfev += 1
        cost_new = float(f_new @ f_new)
        rho = (cost - cost_new) / float(step @ (mu * step - g))
        if rho > 0:
            x, f, jac = x + step, f_new, None
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            if cost - cost_new <= ftol * cost:
                break
        else:
            mu, nu = mu * nu, nu * 2
    return Fit(x, nfev)


def qnum(m: int, n: int) -> float:
    """Quantum integer [m] at q = exp(i pi / n)."""
    return math.sin(m * math.pi / n) / math.sin(math.pi / n)


class FusionGraph:
    """Directed graph with coloured vertices and a distinguished vertex.

    ``phi``, the Perron-Frobenius weights, is computed on first use and
    kept, and ``path_indices`` keeps each sign string's path index once
    ``pathalg.path_index`` has built it; the graph must not change
    afterwards.
    """

    def __init__(self, vertices, colour, edges, star, n, name=""):
        self.vertices = list(vertices)
        self.colour = dict(colour)
        self.edges = list(edges)  # list of (u, v); index = edge id
        self.star = star
        self.n = n
        self.name = name
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.path_indices: dict = {}  # sign string -> pathalg.PathIndex
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
    if _weight_lattice(g):
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


def _weight_lattice(g: FusionGraph) -> bool:
    """Whether the vertices are weights (a, b), as ``build_A`` makes them;
    a graph read from JSON has string vertex ids."""
    return all(isinstance(v, tuple) for v in g.vertices)


def _parallel_edges(g: FusionGraph) -> dict:
    """Edge ids grouped by (source, range), each group in increasing order."""
    out: dict = {}
    for k, e in enumerate(g.edges):
        out.setdefault(e, []).append(k)
    return out


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


def type_I_residual(g: FusionGraph, cells: CellSystem) -> float:
    """Max deviation of the digon frame equation.

    For any edges u, v sharing source and range:
    sum_{a,b closing the loop} W(u,a,b) conj(W(v,a,b))
    = delta_{u,v} [2] phi_source phi_range.
    """
    phi = g.phi
    d = qnum(2, g.n)
    parallel = _parallel_edges(g)
    worst = 0.0
    for u in range(len(g.edges)):
        for v in parallel[g.edges[u]]:
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


def _compile_objective(g: FusionGraph, tris: list):
    """The least-squares objective of ``solve_cells`` as index arrays.

    Returns ``objective(x)`` for x = (re, im) of one weight per triangle.
    Each evaluation gathers the weights, sums the type I frame products
    and the Boltzmann entries with ``np.add.at``, and scatters the entries
    into U_1, U_2 on the length-3 paths from ``star``; the residuals come
    out in the order of the dict route: (re, im) per frame, then the braid
    matrix, real part and imaginary part.
    """
    phi = g.phi
    d = qnum(2, g.n)
    tri_of = {}
    for k, (e1, e2, e3) in enumerate(tris):
        for rot in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
            tri_of[rot] = k

    # type I: frame f sums W(u,a,b) conj(W(v,a,b)) over the loops (u,a,b)
    parallel = _parallel_edges(g)
    f_id, f_w, f_wbar, want = [], [], [], []
    for u in range(len(g.edges)):
        for v in parallel[g.edges[u]]:
            if v < u:
                continue
            for a in g.out_edges[g.range(u)]:
                for b in g.out_edges[g.range(a)]:
                    if (u, a, b) in tri_of:
                        f_id.append(len(want))
                        f_w.append(tri_of[(u, a, b)])
                        f_wbar.append(tri_of[(v, a, b)])
            want.append(d * phi[g.source(u)] * phi[g.range(u)] if u == v else 0.0)
    want = np.array(want, dtype=complex)

    # U entries, in the order boltzmann_U adds them
    keys: dict = {}
    u_key, u_w, u_wbar, u_norm = [], [], [], []
    for r1 in range(len(g.edges)):
        for r2 in g.out_edges[g.range(r1)]:
            for lam in g.in_edges[g.source(r1)]:
                if g.source(lam) != g.range(r2):
                    continue
                norm = 1.0 / (phi[g.source(r1)] * phi[g.range(r2)])
                for r3 in g.out_edges[g.source(r1)]:
                    for r4 in g.out_edges[g.range(r3)]:
                        if g.range(r4) != g.range(r2):
                            continue
                        key = keys.setdefault(((r1, r2), (r3, r4)), len(keys))
                        u_key.append(key)
                        u_w.append(tri_of[(lam, r3, r4)])
                        u_wbar.append(tri_of[(lam, r1, r2)])
                        u_norm.append(norm)
    u_norm = np.array(u_norm)

    # U_i on the length-3 paths: entry (row q, col p) is U[(p_i p_i+1), (q_i q_i+1)]
    paths3 = path_space(g, g.star, 3)
    index = {p: k for k, p in enumerate(paths3)}
    m = len(paths3)
    ops = []
    for i in (0, 1):
        flat, ukey = [], []
        for p, col in index.items():
            for ((a1, a2), (b1, b2)), key in keys.items():
                if (a1, a2) != (p[i], p[i + 1]):
                    continue
                q = p[:i] + (b1, b2) + p[i + 2:]
                if q in index:
                    flat.append(index[q] * m + col)
                    ukey.append(key)
        ops.append((np.array(flat, dtype=np.intp), np.array(ukey, dtype=np.intp)))

    def objective(x):
        w = x[0::2] + 1j * x[1::2]
        s = np.zeros(len(want), dtype=complex)
        np.add.at(s, f_id, w[f_w] * w[f_wbar].conj())
        frame = s - want
        res = [np.column_stack((frame.real, frame.imag)).ravel()]
        if m:
            uval = np.zeros(len(keys), dtype=complex)
            np.add.at(uval, u_key, u_norm * w[u_w] * w[u_wbar].conj())
            u = np.zeros((2, m * m), dtype=complex)
            for i, (flat, ukey) in enumerate(ops):
                u[i, flat] = uval[ukey]
            u1, u2 = u.reshape(2, m, m)
            braid = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
            res += [braid.real.ravel(), braid.imag.ravel()]
        return np.concatenate(res)

    return objective


def _braid_residual(g: FusionGraph, cells: CellSystem) -> float:
    """Max entry of U_1 U_2 U_1 - U_1 - (U_2 U_1 U_2 - U_2) on the length-3
    paths from ``star``, with U_i from ``hecke_operator``."""
    if not path_space(g, g.star, 3):
        return 0.0
    u1 = hecke_operator(g, cells, g.star, 3, 0)
    u2 = hecke_operator(g, cells, g.star, 3, 1)
    return float(np.max(np.abs((u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2))))


def _cells_A(g: FusionGraph, tris: list) -> dict:
    """The closed-form cells of the weight-lattice graph A(n).

    Each triangle gets the real positive W = sqrt(|W|^2).  With lambda =
    (a, b) its lowest vertex, l1 = a + 1 and l2 = b + 1:
    up {lambda, lambda+(1,0), lambda+(0,1)}:
    |W|^2 = [l1][l1+1][l2][l2+1][l1+l2][l1+l2+1] / [2]^2;
    down {lambda, lambda+(1,-1), lambda+(1,0)}:
    |W|^2 = [l1][l1+1][l2-1][l2][l1+l2][l1+l2+1] / [2]^2.
    """

    def q(m):
        return qnum(m, g.n)

    vals = {}
    for t in tris:
        corners = {g.source(e) for e in t}
        a, b = min(corners)
        l1, l2 = a + 1, b + 1
        k = l2 if (a, b + 1) in corners else l2 - 1  # up or down
        w2 = q(l1) * q(l1 + 1) * q(k) * q(k + 1) * q(l1 + l2) * q(l1 + l2 + 1)
        vals[t] = complex(math.sqrt(w2) / q(2))
    return vals


def _cells_lm(g: FusionGraph, tris: list, tol: float):
    """Cell weights by Levenberg-Marquardt on the compiled objective, with
    up to 12 restarts drawn from a fixed generator until one reaches
    ``tol``; returns the best weights and the objective's max residual."""
    rng = np.random.default_rng(0)
    objective = _compile_objective(g, tris)
    best = None
    for _ in range(12):
        x0 = rng.normal(scale=1.0, size=2 * len(tris))
        sol = least_squares(objective, x0)
        resid = float(np.max(np.abs(objective(sol.x))))
        if best is None or resid < best[0]:
            best = (resid, sol.x)
        if resid < tol:
            break
    resid, x = best
    return {t: complex(x[2 * k], x[2 * k + 1]) for k, t in enumerate(tris)}, resid


class UncertifiedCells(ValueError):
    """Raised by ``solve_cells`` when its cells miss ``tol``; ``cells``
    holds them, with their residual."""

    def __init__(self, cells: CellSystem):
        super().__init__(f"cells fail the slow-route check at residual {cells.residual:.2e}")
        self.cells = cells


def solve_cells(g: FusionGraph, tol: float = 1e-10) -> CellSystem:
    """Cell weights satisfying both frame equations.

    A graph from ``build_A`` (weight vertices) gets the closed form of
    ``_cells_A``.  Any other graph gets ``_cells_lm``: least squares over
    real and imaginary parts of one weight per triangle, on the type I
    (digon) equations and the braid-type relation of the operators built
    from the weights (the square relation), compiled once into index
    arrays.  Either way the weights are
    certified by the slow route, ``type_I_residual`` and the braid
    relation of ``hecke_operator`` on ``cells.U``; ``cells.residual`` is
    the largest residual seen, and the solve raises ``UncertifiedCells``
    unless it is below ``tol``.
    """
    tris = triangles(g)
    if not tris:
        return CellSystem(g, {}, 0.0)
    if _weight_lattice(g):
        vals, resid = _cells_A(g, tris), 0.0
    else:
        vals, resid = _cells_lm(g, tris, tol)
    cells = CellSystem(g, vals, 0.0)
    cells.residual = max(resid, type_I_residual(g, cells), _braid_residual(g, cells))
    if not cells.residual < tol:
        raise UncertifiedCells(cells)
    return cells
