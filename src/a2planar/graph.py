"""Fusion-graph infrastructure.

The graphs here are directed, three-colourable multigraphs whose
adjacency matrix has Perron-Frobenius eigenvalue [3] at the graph's
Coxeter number.  ``build_A`` constructs the truncated dominant-weight
triangle; other graphs can be loaded from JSON.  Their Perron-Frobenius
weights come from a closed form (``build_A``) or a power iteration
(JSON), both certified by one pure-Python check, and ``dims`` counts
paths.  Everything here is pure Python: no function imports numpy.

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
``least_squares``, a short Levenberg-Marquardt that solves its damped
normal equations by a sparse Cholesky factorization, with restarts from
``random.Random(0)``, so the same graph always gets the same cells.  Its
objective is compiled once per solve into index lists (triangle of each
cell rotation, frame terms, Boltzmann entries, Hecke-matrix entries), and
the same lists give its exact Jacobian, one sparse row per residual.
Either way the cells are certified by residuals only (the gauge is
arbitrary): they are checked through the slow route, ``type_I_residual``
and the braid relation of ``hecke_operator`` on ``cells.U``.  Type I and
the residuals of ``pathalg``'s connections are frames of ``gram_residual``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cached_property
from typing import NamedTuple

__all__ = [
    "FusionGraph",
    "build_A",
    "pf_eigen",
    "triangles",
    "solve_cells",
    "UncertifiedCells",
    "UncertifiedPhi",
    "CellSystem",
    "boltzmann_U",
    "type_I_residual",
    "hecke_operator",
    "level_signs",
    "enumerate_paths",
    "dims",
    "qnum",
    "worst",
    "gram_residual",
]


class Fit(NamedTuple):
    """Result of ``least_squares``: the point reached and the number of
    evaluations, of the objective and of its Jacobian together."""

    x: list
    nfev: int


XTOL = FTOL = 1e-15  # least_squares' relative step and cost-decrease floors


def worst(values) -> float:
    """The largest of ``values`` (0.0 if none), or inf if any is not finite;
    Python's ``max`` drops a NaN that does not come first."""
    values = list(values)
    return max(values, default=0.0) if all(map(math.isfinite, values)) else math.inf


def gram_residual(frames) -> float:
    """The ``worst`` of |sum_c x_c conj(y_c) - delta_xy t| over every pair of
    rows x, y of each frame ``(t, rows)``, ``rows`` a collection of dicts
    ``{column: value}``: 0 when each frame's rows are orthogonal with squared
    norm t.  The sum runs over x's columns in order, so a NaN or inf gives inf."""
    errors = []
    for t, rows in frames:
        for i, x in enumerate(rows):
            for j, y in enumerate(rows):
                s = 0.0 + 0.0j
                for c, xc in x.items():
                    s += xc * y.get(c, 0.0).conjugate()
                errors.append(abs(s - (t if i == j else 0.0)))
    return worst(errors)


def least_squares(fun, x0, jac) -> Fit:
    """Minimize the sum of squares of ``fun(x)``, a list of floats, by
    Levenberg-Marquardt from ``x0``, with ``jac(x)`` the exact Jacobian of
    ``fun`` as one sparse row ``{column: value}`` per residual.

    The damping mu follows the gain ratio rho of each step (Nielsen):
    mu *= max(1/3, 1 - (2 rho - 1)^3) on an accepted step, mu *= nu and
    nu *= 2 on a rejected one.  Each step solves the damped normal
    equations (J^T J + mu I) step = -J^T f by ``_cholesky_solve``.  The
    Jacobian is evaluated at the start and after each accepted step, at
    most 100 times.  It stops once an accepted step lowers the squared
    residual by at most ``FTOL`` of itself, once a step (accepted or not) is
    at most ``XTOL`` of |x| or is not finite, once a pivot of the damped
    normal matrix is not positive and finite, or when a 101st Jacobian would
    be needed.
    """
    x = [float(v) for v in x0]
    f = fun(x)
    nfev, mu, nu = 1, None, 2.0
    for _ in range(100):
        a, g = _normal_equations(jac(x), f, len(x))
        nfev += 1
        cost = sum(v * v for v in f)
        if mu is None:
            mu = 1e-3 * max(row.get(k, 0.0) for k, row in enumerate(a))
        while True:  # ends: mu grows on each rejection until the step fails the test below
            step = _cholesky_solve(a, mu, [-v for v in g])
            if step is None or not math.hypot(*step) > XTOL * math.hypot(*x):
                return Fit(x, nfev)
            x_new = list(map(operator.add, x, step))
            f_new = fun(x_new)
            nfev += 1
            cost_new = sum(v * v for v in f_new)
            rho = (cost - cost_new) / sum(s * (mu * s - gk) for s, gk in zip(step, g))
            if rho > 0:
                break
            mu, nu = mu * nu, nu * 2
        x, f = x_new, f_new
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        if cost - cost_new <= FTOL * cost:
            break
    return Fit(x, nfev)


def _normal_equations(rows: list, f: list, n: int):
    """J^T J, as its upper rows ``{j: entry}`` (j >= i), and J^T f, from the
    sparse rows of J and the residuals f."""
    a, g = [{} for _ in range(n)], [0.0] * n
    for row, fr in zip(rows, f):
        items = sorted(row.items())
        for t, (i, vi) in enumerate(items):
            g[i] += vi * fr
            ai = a[i]
            for j, vj in items[t:]:
                ai[j] = ai.get(j, 0.0) + vi * vj
    return a, g


def _cholesky_solve(a: list, mu: float, b: list):
    """x with (A + mu I) x = b, for the symmetric A given by its upper rows
    ``{j: entry}``, or None if a pivot is not positive and finite.

    The factor R, with A + mu I = R^T R, is built in natural order, row by
    row as dicts of its off-diagonal entries: each pivot row updates the
    rows its entries name, so R holds only A's pattern and its fill-in."""
    rows, diag = [dict(row) for row in a], []
    for k, row in enumerate(rows):
        d = row.pop(k, 0.0) + mu
        if not 0.0 < d < math.inf:
            return None
        diag.append(math.sqrt(d))
        items = sorted((j, v / diag[k]) for j, v in row.items())
        row.update(items)
        for t, (i, vi) in enumerate(items):
            ri = rows[i]
            for j, vj in items[t:]:
                ri[j] = ri.get(j, 0.0) - vi * vj
    y = list(b)
    for k, row in enumerate(rows):  # R^T y = b
        y[k] /= diag[k]
        for j, v in row.items():
            y[j] -= v * y[k]
    for k in reversed(range(len(rows))):  # R x = y
        y[k] = (y[k] - sum(v * y[j] for j, v in rows[k].items())) / diag[k]
    return y


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
        """The graph of ``to_json``; ValueError unless ``obj`` is an object
        whose n is an int >= 4, whose ``vertices`` is a list of objects with
        distinct ids, each a string or an int, whose ``edges`` is a list of
        vertex pairs, whose star is a vertex, and whose every colour is 0, 1
        or 2 and rises by 1 mod 3 along every edge, as ``build_A`` colours."""
        if type(obj) is not dict:
            raise ValueError(f"graph {obj!r} is not an object")
        if type(obj["n"]) is not int or obj["n"] < 4:
            raise ValueError(f"need an integer n >= 4, not {obj['n']!r}")
        for key in ("vertices", "edges"):
            if type(obj[key]) is not list:
                raise ValueError(f"{key} {obj[key]!r} is not a list")
        colour = {}
        for row in obj["vertices"]:
            if type(row) is not dict:
                raise ValueError(f"vertices row {row!r} is not an object")
            v, c = row["id"], row["colour"]
            if type(v) not in (str, int):
                raise ValueError(f"vertex id {v!r} is not a string or an int")
            if v in colour:
                raise ValueError(f"vertex {v!r} is listed twice")
            if type(c) is not int or c not in (0, 1, 2):
                raise ValueError(f"vertex {v!r} has colour {c!r}, not 0, 1 or 2")
            colour[v] = c

        def is_vertex(x) -> bool:
            return type(x) in (str, int) and x in colour

        for e in obj["edges"]:
            if type(e) is not list or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair of vertices")
            for end in e:
                if not is_vertex(end):
                    raise ValueError(f"edge {e!r} names {end!r}, which is not a vertex")
            if colour[e[1]] != (colour[e[0]] + 1) % 3:
                raise ValueError(f"colour does not rise by 1 mod 3 along edge {e!r}")
        if not is_vertex(obj["star"]):
            raise ValueError(f"star {obj['star']!r} is not a vertex")
        return FusionGraph(list(colour), colour, [tuple(e) for e in obj["edges"]],
                           obj["star"], obj["n"])


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
    """Positive eigenvector of the transposed adjacency matrix, normalized
    at ``star``.

    For the weight-lattice graphs the entries are computed in closed
    form, phi_(a,b) = [a+1][b+1][a+b+2]/[2]; any other graph, such as one
    read from JSON, gets them from the power iteration of ``_perron``.
    Either way phi is certified the same way, without an eigensolve: it
    must be positive, its Collatz-Wielandt bracket must lie within 1e-9 of
    [3], and A phi = [3] phi must hold to 1e-10.  ``UncertifiedPhi`` is
    raised otherwise.
    """
    if _weight_lattice(g):
        vec = _phi_A(g)
        lo, hi = _bracket(g, vec)
    else:
        lo, hi, vec = _perron(g)
    q3 = qnum(3, g.n)
    gap = max(q3 - lo, hi - q3) if lo <= hi else math.inf
    if not gap <= 1e-9:
        raise UncertifiedPhi("Perron-Frobenius eigenvalue is not [3]", gap)
    top = vec[g._vindex[g.star]]
    phi = {v: x / top for v, x in zip(g.vertices, vec)}
    res = worst(
        abs(sum(phi[g.range(e)] for e in g.out_edges[v]) - q3 * phi[v])
        for v in g.vertices
    )
    if not res <= 1e-10:
        raise UncertifiedPhi(f"eigen-residual {res:.2e}", res)
    return phi


def _phi_A(g: FusionGraph) -> list:
    """The closed-form Perron-Frobenius weights of A(n), in vertex order."""
    n = g.n
    return [qnum(a + 1, n) * qnum(b + 1, n) * qnum(a + b + 2, n) / qnum(2, n)
            for a, b in g.vertices]


_PERRON_CAP = 20000  # A(20) stops after 418 iterations, A(40) after 1622


def _perron(g: FusionGraph):
    """Perron vector x of A^T (in vertex order, max entry 1) by power
    iteration on A^T + I, whose shift keeps a periodic graph such as A(n)
    from cycling, and its ``_bracket`` (lo, hi).  The iteration stops once
    no entry moves by more than 1e-15; no stop within ``_PERRON_CAP``
    iterations gives the empty bracket (inf, -inf)."""
    into = _into(g)
    x = [1.0] * len(into)
    for _ in range(_PERRON_CAP):
        y = [xv + sum(map(x.__getitem__, us)) for xv, us in zip(x, into)]
        top = max(y)
        y = [t / top for t in y]
        moved = max(map(abs, map(operator.sub, x, y)))
        x = y
        if moved <= 1e-15:
            break
    if moved > 1e-15:
        return math.inf, -math.inf, x
    return (*_bracket(g, x), x)


def _into(g: FusionGraph) -> list:
    """Per vertex, in vertex order, the indices of the sources of its
    incoming edges: row v of A^T."""
    return [[g._vindex[g.source(e)] for e in g.in_edges[v]] for v in g.vertices]


def _bracket(g: FusionGraph, x: list):
    """Collatz-Wielandt bracket (lo, hi) of x, in vertex order: the min and
    max of (A^T x)_v / x_v, between which the Perron eigenvalue of A^T lies
    when x > 0.  A vector that is not positive (a NaN entry included) gives
    the empty bracket (inf, -inf)."""
    if not all(v > 0.0 for v in x):
        return math.inf, -math.inf
    ratios = [sum(map(x.__getitem__, us)) / xv for xv, us in zip(x, _into(g))]
    return min(ratios), max(ratios)


class UncertifiedPhi(ValueError):
    """Raised by ``pf_eigen`` when phi fails its certificate; ``residual``
    is what failed: the distance of the Collatz-Wielandt bracket from [3]
    (inf when phi is not positive or the power iteration did not settle),
    or the eigen-residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


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
    """Max deviation of the digon frame equation, one ``gram_residual``
    frame per (source, range) with a row per edge.

    For any edges u, v sharing source and range:
    sum_{a,b closing the loop} W(u,a,b) conj(W(v,a,b))
    = delta_{u,v} [2] phi_source phi_range.
    """
    phi, d = g.phi, qnum(2, g.n)
    frames = []
    for (s, r), group in _parallel_edges(g).items():
        loops = [(a, b) for a in g.out_edges[r] for b in g.out_edges[g.range(a)] if g.range(b) == s]
        frames.append((d * phi[s] * phi[r], [{ab: cells.W(u, *ab) for ab in loops} for u in group]))
    return gram_residual(frames)


def level_signs(i: int, j: int) -> str:
    """Sign string of a shape-(i, j) path: j forward steps, then i
    vertical steps alternating forward ('-') / reverse ('+')."""
    return "-" * j + "".join("-" if l % 2 == 1 else "+" for l in range(1, i + 1))


def enumerate_paths(g: FusionGraph, signs: str, start=None):
    """All signed paths from ``start`` following the sign string
    ('-' forward on an edge, '+' backward)."""
    v0 = g.star if start is None else start
    out = [((), v0)]
    for s in signs:
        nxt = []
        for p, v in out:
            if s == "-":
                for e in g.out_edges[v]:
                    nxt.append((p + ((e, 1),), g.range(e)))
            else:
                for e in g.in_edges[v]:
                    nxt.append((p + ((e, -1),), g.source(e)))
        out = nxt
    return out


def dims(g: FusionGraph, i: int, j: int) -> int:
    """dim B[i,j] of the path-pair algebra: the sum over end vertices of
    the squared number of shape-(i, j) paths from ``star`` to them.  The
    counts come from walking a vector of path counts along the sign
    string, and are checked against the explicit path enumeration."""
    if i < 0 or j < 0:
        raise ValueError("negative level")
    signs = level_signs(i, j)
    count = Counter({g.star: 1})
    for s in signs:
        nxt = Counter()
        for u, v in g.edges if s == "-" else [e[::-1] for e in g.edges]:
            nxt[v] += count[u]
        count = +nxt
    if Counter(v for _, v in enumerate_paths(g, signs)) != count:
        raise AssertionError("path counts and enumeration disagree")
    return sum(c * c for c in count.values())


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


def hecke_operator(g: FusionGraph, cells: CellSystem, start, length: int, i: int) -> list:
    """U_i acting on the forward paths of ``length`` steps from ``start``,
    as a dense matrix of nested lists (rows of complex numbers).

    The operator replaces steps i, i+1 (0-based) of the path using the
    Boltzmann weights and leaves the rest untouched.
    """
    index = {p: k for k, (p, _) in enumerate(enumerate_paths(g, "-" * length, start))}
    m = [[0j] * len(index) for _ in index]
    for p, k in index.items():
        r1, r2 = p[i][0], p[i + 1][0]
        for ((a1, a2), (b1, b2)), val in cells.U.items():
            if (a1, a2) != (r1, r2):
                continue
            q = p[:i] + ((b1, 1), (b2, 1)) + p[i + 2 :]
            if q in index:
                m[index[q]][k] += val
    return m


def _compile_objective(g: FusionGraph, tris: list):
    """The least-squares objective of ``solve_cells`` as index lists.

    Returns ``(objective, jacobian)``, functions of the list x = (re, im) of
    one weight per triangle.  Each evaluation sums the type I frame
    products and the entries of U_1, U_2 on the length-3 paths from
    ``star`` from the terms c w[a] conj(w[b]) listed here; the residuals
    come out as a list, in the order of the dict route: (re, im) per frame,
    then the braid matrix row by row, real part and imaginary part.  The
    sums are bilinear in (w, conj w), so the Jacobian, one sparse row
    ``{parameter: derivative}`` per residual, takes c conj(w[b]) and c w[a]
    from each term, and the braid matrix takes its derivative by the
    product rule, once per parameter that feeds U_1 or U_2.
    """
    phi = g.phi
    d = qnum(2, g.n)
    tri_of = {}
    for k, (e1, e2, e3) in enumerate(tris):
        for rot in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
            tri_of[rot] = k

    # type I: frame r sums W(u,a,b) conj(W(v,a,b)) over the loops (u,a,b)
    parallel = _parallel_edges(g)
    frame_terms, want = [], []
    for u in range(len(g.edges)):
        for v in parallel[g.edges[u]]:
            if v < u:
                continue
            for a in g.out_edges[g.range(u)]:
                for b in g.out_edges[g.range(a)]:
                    if (u, a, b) in tri_of:
                        frame_terms.append((len(want), tri_of[(u, a, b)], tri_of[(v, a, b)], 1.0))
            want.append(d * phi[g.source(u)] * phi[g.range(u)] if u == v else 0.0)

    # U entries, in the order boltzmann_U adds them
    keys: dict = {}
    u_terms = []
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
                        u_terms.append((key, tri_of[(lam, r3, r4)], tri_of[(lam, r1, r2)], norm))

    # U_i on the length-3 paths: entry (row q, col p) is U[(p_i p_i+1), (q_i q_i+1)]
    index = {p: k for k, (p, _) in enumerate(enumerate_paths(g, "---"))}
    m = len(index)
    ops = []
    for i in (0, 1):
        ops.append([])
        for p, col in index.items():
            for ((a1, a2), (b1, b2)), key in keys.items():
                if (a1, a2) != (p[i][0], p[i + 1][0]):
                    continue
                q = p[:i] + ((b1, 1), (b2, 1)) + p[i + 2:]
                if q in index:
                    ops[i].append((index[q], col, key))
    used = {key for op in ops for _, _, key in op}
    u_terms = [t for t in u_terms if t[0] in used]
    feed = sorted({k for _, a, b, _ in u_terms for k in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1)})

    def sums(w, terms, size):
        """s[r] = sum of c w[a] conj(w[b]) over the terms (r, a, b, c)."""
        s = [0j] * size
        for r, a, b, c in terms:
            s[r] += c * w[a] * w[b].conjugate()
        return s

    def sums_jac(w, terms, size):
        """ds[r]/dx as {parameter: complex}, per r; x[2a], x[2a+1] are the
        real and imaginary part of w[a]."""
        ds = [{} for _ in range(size)]
        for r, a, b, c in terms:
            da, db = c * w[b].conjugate(), c * w[a]
            dr = ds[r]
            for k, v in ((2 * a, da), (2 * a + 1, 1j * da), (2 * b, db), (2 * b + 1, -1j * db)):
                dr[k] = dr.get(k, 0j) + v
        return ds

    def u_pair(entry):
        """U_1, U_2 as nested lists, entry ``key`` read by ``entry(key)``."""
        out = []
        for op in ops:
            u = [[0j] * m for _ in range(m)]
            for row, col, key in op:
                u[row][col] = entry(key)
            out.append(u)
        return out

    def objective(x):
        w = [complex(re, im) for re, im in zip(x[0::2], x[1::2])]
        res = []
        for s, t in zip(sums(w, frame_terms, len(want)), want):
            res += ((s - t).real, (s - t).imag)
        if m:
            braid = _braid(*u_pair(sums(w, u_terms, len(keys)).__getitem__))
            res += [z.real for row in braid for z in row] + [z.imag for row in braid for z in row]
        return res

    def jacobian(x):
        w = [complex(re, im) for re, im in zip(x[0::2], x[1::2])]
        jac = []
        for dr in sums_jac(w, frame_terms, len(want)):
            jac += ({k: v.real for k, v in dr.items() if v.real},
                    {k: v.imag for k, v in dr.items() if v.imag})
        if m:
            u1, u2 = u_pair(sums(w, u_terms, len(keys)).__getitem__)
            u12, u21 = _matmul(u1, u2), _matmul(u2, u1)
            du = sums_jac(w, u_terms, len(keys))
            braid = [{} for _ in range(2 * m * m)]
            for k in feed:
                d1, d2 = u_pair(lambda key: du[key].get(k, 0j))
                mats = (_matmul(d1, u21), _matmul(u1, _matmul(d2, u1)), _matmul(u12, d1), d1,
                        _matmul(d2, u12), _matmul(u2, _matmul(d1, u2)), _matmul(u21, d2), d2)
                for r, rows in enumerate(zip(*mats)):
                    for c, (a, b, e, f, p, q, s, t) in enumerate(zip(*rows)):
                        z = (a + b + e - f) - (p + q + s - t)
                        if z:
                            braid[r * m + c][k], braid[m * m + r * m + c][k] = z.real, z.imag
            jac += braid
        return jac

    return objective, jacobian


def _braid(u1: list, u2: list) -> list:
    """U_1 U_2 U_1 - U_1 - (U_2 U_1 U_2 - U_2) of two matrices given as
    nested lists."""
    u121, u212 = _matmul(_matmul(u1, u2), u1), _matmul(_matmul(u2, u1), u2)
    return [[(x - a) - (y - b) for x, a, y, b in zip(*rows)] for rows in zip(u121, u1, u212, u2)]


def _braid_residual(g: FusionGraph, cells: CellSystem) -> float:
    """Max entry of ``_braid`` on the length-3 paths from ``star``, with U_i
    from ``hecke_operator``."""
    u1 = hecke_operator(g, cells, g.star, 3, 0)
    u2 = hecke_operator(g, cells, g.star, 3, 1)
    return worst(abs(z) for row in _braid(u1, u2) for z in row)


def _matmul(a: list, b: list) -> list:
    """The product of two matrices given as nested lists."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


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
    """Cell weights by Levenberg-Marquardt on the compiled objective and its
    exact Jacobian, with up to 12 restarts drawn from ``random.Random(0)``
    until one reaches ``tol``; returns the best weights and the objective's
    max residual."""
    import random

    rng = random.Random(0)
    objective, jacobian = _compile_objective(g, tris)
    best = None
    for _ in range(12):
        x0 = [rng.gauss(0.0, 1.0) for _ in range(2 * len(tris))]
        sol = least_squares(objective, x0, jac=jacobian)
        resid = worst(map(abs, objective(sol.x)))
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
    lists.  Either way the weights are
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
    cells.residual = worst((resid, type_I_residual(g, cells), _braid_residual(g, cells)))
    if not cells.residual < tol:
        raise UncertifiedCells(cells)
    return cells
