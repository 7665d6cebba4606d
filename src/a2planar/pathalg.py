"""Path-pair algebras on a fusion graph.

A double ladder of finite-dimensional algebras ``B[i,j]`` is spanned by
pairs of equal-length paths from the distinguished vertex with a common
endpoint.  A path of shape ``(i, j)`` takes ``j`` horizontal steps
(forward on the graph) followed by ``i`` vertical steps that alternate
forward / reverse starting forward.  On top of that skeleton this module
provides

* ``dims`` by the block-matrix product and by direct enumeration,
* the Markov trace,
* Hecke operators ``make_U`` built from the Boltzmann weights,
* Jones projections ``make_e`` on the vertical steps,
* the connection between the two path presentations of a square of the
  ladder, with unitarity and commuting-square residuals,
* single-square basis changes, the horizontal/vertical inclusions, and a
  flatness report, and
* ``present_Z``: evaluation of a diagram given as a word of horizontal
  strips (cups, caps, trivalent forks, labelled rectangles) as a vector
  of paths, together with builders for the named strip words.

All arithmetic on this side is complex floating point (64-bit); the
default comparison tolerance in the callers is 1e-10.
"""

from __future__ import annotations

import cmath
import math

# boltzmann_U and pf_eigen are unused here but stay importable from this
# module: perfbench/selftest.py checks that the tracer wraps them here too.
from .graph import CellSystem, FusionGraph, boltzmann_U, pf_eigen, qnum  # noqa: F401
from .web import flip

__all__ = [
    "PathAlgElement",
    "Connection",
    "level_signs",
    "sigma_word",
    "enumerate_paths",
    "enumerate_pairs",
    "dims",
    "identity_element",
    "trace",
    "make_U",
    "make_e",
    "connection",
    "basis_change",
    "vertical_include",
    "horizontal_include",
    "flatness_check",
    "strip_boundary",
    "present_Z",
    "z_element",
    "word_identity",
    "word_w",
    "word_f",
    "word_hexagon",
    "word_closure",
    "word_inclusion",
    "word_cond_exp",
    "word_insert",
    "cond_exp",
]

_CHOP = 1e-14


# ---------------------------------------------------------------------------
# paths

def step_ends(g: FusionGraph, step):
    """(from, to) of a signed step; direction -1 walks the edge backwards."""
    e, d = step
    u, v = g.edges[e]
    return (u, v) if d == 1 else (v, u)


def step_reverse(step):
    return (step[0], -step[1])


def path_range(g: FusionGraph, path, start=None):
    v = g.star if start is None else start
    for s in path:
        a, b = step_ends(g, s)
        if a != v:
            raise ValueError("broken path")
        v = b
    return v


def level_signs(i: int, j: int) -> str:
    """Sign string of a shape-(i, j) path: j forward steps, then i
    vertical steps alternating forward ('-') / reverse ('+')."""
    return "-" * j + "".join("-" if l % 2 == 1 else "+" for l in range(1, i + 1))


def sigma_word(i: int, j: int) -> str:
    """Boundary word of the closed-path model at level (i, j)."""
    w = level_signs(i, j)
    return w + flip(w)[::-1]


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


def enumerate_pairs(g: FusionGraph, i: int, j: int):
    """Basis pairs of B[i,j]: same shape, same endpoint."""
    by_end: dict = {}
    for p, v in enumerate_paths(g, level_signs(i, j)):
        by_end.setdefault(v, []).append(p)
    pairs = []
    for v, ps in sorted(by_end.items(), key=lambda kv: str(kv[0])):
        for p1 in ps:
            for p2 in ps:
                pairs.append((p1, p2))
    return pairs


def dims(g: FusionGraph, i: int, j: int) -> int:
    """dim B[i,j] by the adjacency-matrix product, checked against the
    direct path count."""
    import numpy as np

    if i < 0 or j < 0:
        raise ValueError("negative level")
    adj = g.adjacency()
    lam = np.eye(adj.shape[0], dtype=np.int64)
    for _ in range(j):
        lam = lam @ adj
    for l in range(1, i + 1):
        lam = lam @ (adj if l % 2 == 1 else adj.T)
    k = g._vindex[g.star]
    by_matrix = int((lam @ lam.T)[k, k])
    counts: dict = {}
    for _, v in enumerate_paths(g, level_signs(i, j)):
        counts[v] = counts.get(v, 0) + 1
    by_paths = sum(c * c for c in counts.values())
    if by_matrix != by_paths:
        raise AssertionError("matrix and enumeration dimension disagree")
    return by_matrix


# ---------------------------------------------------------------------------
# elements

class PathAlgElement:
    """Linear combination of path pairs at a fixed level."""

    __slots__ = ("graph", "level", "terms")

    def __init__(self, graph: FusionGraph, level, terms=None):
        self.graph = graph
        self.level = tuple(level)
        self.terms = dict(terms or {})

    def _check(self, other: "PathAlgElement"):
        if self.graph is not other.graph or self.level != other.level:
            raise ValueError("level or graph mismatch")

    def copy(self) -> "PathAlgElement":
        return PathAlgElement(self.graph, self.level, self.terms)

    def chop(self, tol: float = _CHOP) -> "PathAlgElement":
        self.terms = {k: v for k, v in self.terms.items() if abs(v) > tol}
        return self

    def __add__(self, other: "PathAlgElement") -> "PathAlgElement":
        self._check(other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, 0.0) + v
        return PathAlgElement(self.graph, self.level, t).chop()

    def __sub__(self, other: "PathAlgElement") -> "PathAlgElement":
        return self + other.scale(-1.0)

    def scale(self, c) -> "PathAlgElement":
        return PathAlgElement(
            self.graph, self.level, {k: c * v for k, v in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, PathAlgElement):
            return self.scale(other)
        self._check(other)
        right: dict = {}
        for (q1, q2), d in other.terms.items():
            right.setdefault(q1, []).append((q2, d))
        t: dict = {}
        for (p1, p2), c in self.terms.items():
            for q2, d in right.get(p2, ()):
                k = (p1, q2)
                t[k] = t.get(k, 0.0) + c * d
        return PathAlgElement(self.graph, self.level, t).chop()

    def __rmul__(self, other):
        return self.scale(other)

    def star(self) -> "PathAlgElement":
        return PathAlgElement(
            self.graph,
            self.level,
            {(p2, p1): c.conjugate() if isinstance(c, complex) else c
             for (p1, p2), c in self.terms.items()},
        )

    def norm(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def dist(self, other: "PathAlgElement") -> float:
        return (self - other).norm()

    def to_json(self) -> list:
        out = []
        for (p1, p2), c in sorted(self.terms.items()):
            c = complex(c)
            out.append(
                {
                    "p1": [[e, d] for e, d in p1],
                    "p2": [[e, d] for e, d in p2],
                    "re": c.real,
                    "im": c.imag,
                }
            )
        return out

    @staticmethod
    def from_json(graph: FusionGraph, level, obj) -> "PathAlgElement":
        terms = {}
        for row in obj:
            p1 = tuple((int(e), int(d)) for e, d in row["p1"])
            p2 = tuple((int(e), int(d)) for e, d in row["p2"])
            terms[(p1, p2)] = complex(row["re"], row["im"])
        return PathAlgElement(graph, level, terms)

    def __repr__(self):
        return f"PathAlgElement(level={self.level}, nterms={len(self.terms)})"


def identity_element(g: FusionGraph, i: int, j: int) -> PathAlgElement:
    terms = {(p, p): 1.0 + 0.0j for p, _ in enumerate_paths(g, level_signs(i, j))}
    return PathAlgElement(g, (i, j), terms)


def trace(x: PathAlgElement) -> complex:
    """Markov trace: (p, p) weighs [3]^-(i+j) * phi at the endpoint."""
    g = x.graph
    phi = g.phi
    k = sum(x.level)
    scale = qnum(3, g.n) ** (-k)
    tot = 0.0 + 0.0j
    for (p1, p2), c in x.terms.items():
        if p1 == p2:
            tot += c * scale * phi[path_range(g, p1)]
    return tot


# ---------------------------------------------------------------------------
# Hecke operators and Jones projections

def _pair_steps(key):
    (a1, a2) = key
    return ((a1, 1), (a2, 1))


def make_U(g: FusionGraph, cells: CellSystem, i: int, j: int, k: int) -> PathAlgElement:
    """Hecke operator U_{-k} in B[i,j].

    For k <= j-2 it couples the two forward steps at positions
    (j-1-k, j-k); for k = j-1 it couples the last horizontal step with
    the first vertical step (which is also forward), so the same
    Boltzmann tensor applies across the corner.
    """
    if not 0 <= k <= j - 1:
        raise ValueError("k out of range")
    if k == j - 1 and i == 0:
        raise ValueError("corner operator needs a vertical step")
    if k <= j - 2:
        pre_signs = "-" * (j - 2 - k)
        suf_signs = "-" * k + level_signs(i, 0)
    else:
        pre_signs = "-" * (j - 1)
        suf_signs = "".join("-" if l % 2 == 1 else "+" for l in range(2, i + 1))
    return _u_formula(g, cells.U, pre_signs, suf_signs, (i, j))


def _u_formula(g, U, pre_signs, suf_signs, level) -> PathAlgElement:
    pres = enumerate_paths(g, pre_signs)
    sufs: dict = {}
    terms: dict = {}
    for (pa, pb), val in U.items():
        a = g.source(pa[0])
        w = g.range(pa[1])
        for pre, va in pres:
            if va != a:
                continue
            if w not in sufs:
                sufs[w] = [p for p, _ in enumerate_paths(g, suf_signs, start=w)]
            for suf in sufs[w]:
                p1 = pre + _pair_steps(pb) + suf
                p2 = pre + _pair_steps(pa) + suf
                key = (p1, p2)
                terms[key] = terms.get(key, 0.0 + 0.0j) + val
    return PathAlgElement(g, level, terms).chop()


def make_e(g: FusionGraph, phi: dict, i: int, j: int, l: int) -> PathAlgElement:
    """Jones projection e_l in B[i,j]: excursion on vertical steps l, l+1."""
    if not 1 <= l <= i - 1:
        raise ValueError("l out of range")
    a3 = qnum(3, g.n)
    tail_signs = "".join(
        "-" if t % 2 == 1 else "+" for t in range(l + 2, i + 1)
    )
    terms: dict = {}
    for head, c in enumerate_paths(g, level_signs(l - 1, j)):
        if l % 2 == 1:
            cands = [(e, 1) for e in g.out_edges[c]]
        else:
            cands = [(e, -1) for e in g.in_edges[c]]
        tails = [p for p, _ in enumerate_paths(g, tail_signs, start=c)]
        for gp in cands:
            rg = step_ends(g, gp)[1]
            for hp in cands:
                rh = step_ends(g, hp)[1]
                coeff = math.sqrt(phi[rg] * phi[rh]) / (a3 * phi[c])
                for tail in tails:
                    p1 = head + (gp, step_reverse(gp)) + tail
                    p2 = head + (hp, step_reverse(hp)) + tail
                    key = (p1, p2)
                    terms[key] = terms.get(key, 0.0 + 0.0j) + coeff
    return PathAlgElement(g, (i, j), terms)


# ---------------------------------------------------------------------------
# connections

class Connection:
    """Square-transport coefficients for one parity of the ladder.

    Keys are quadruples of graph edge ids (r1, r2, r3, r4) read around a
    square: r1 across the top, r2 down the right, r3 down the left, r4
    across the bottom.  For even parity all four are traversed forward;
    for odd parity the two vertical edges are traversed backward, so r2
    runs w->v and r3 runs x->u on the graph.
    """

    def __init__(self, graph: FusionGraph, parity: str, X: dict):
        self.graph = graph
        self.parity = parity
        self.X = X

    def _blocks(self):
        """Group keys by the (top-left, bottom-right) corner vertices."""
        g = self.graph
        blocks: dict = {}
        for (r1, r2, r3, r4), val in self.X.items():
            if self.parity == "even":
                u, w = g.source(r1), g.range(r2)
            else:
                u, w = g.source(r1), g.source(r2)
            blocks.setdefault((u, w), {}).setdefault((r1, r2), {})[(r3, r4)] = val
        return blocks

    def unitarity_residual(self) -> float:
        worst = 0.0
        for _, rows in self._blocks().items():
            tops = sorted(rows)
            bots = sorted({b for r in rows.values() for b in r})
            for t1 in tops:
                for t2 in tops:
                    s = 0.0 + 0.0j
                    for b in bots:
                        s += rows[t1].get(b, 0.0) * rows[t2].get(b, 0.0).conjugate()
                    want = 1.0 if t1 == t2 else 0.0
                    worst = max(worst, abs(s - want))
        return worst

    def commuting_square_residual(self) -> float:
        """Residual of the weighted biunitarity identity that makes each
        square of the ladder a commuting square."""
        g = self.graph
        phi = g.phi

        def pr(edge, down):
            # path-sense (from, to) of a vertical edge for this parity
            u, v = g.edges[edge]
            if self.parity == "even":
                return (u, v)
            return (v, u)

        # organize: for fixed sigma2, sigma4 we need all (sigma1, sigma3)
        items: dict = {}
        for (r1, r2, r3, r4), val in self.X.items():
            items.setdefault((r2, r4), {})[(r1, r3)] = val
        # collect candidate (sigma1, sigma3) pairs keyed by their corners
        pairs: dict = {}
        for (r2, r4), row in items.items():
            for (r1, r3) in row:
                u = g.source(r1)
                v = g.range(r1)
                x = pr(r3, True)[1]
                pairs.setdefault((u, v, x), set()).add((r1, r3))
        worst = 0.0
        for (u, v, x), ps in pairs.items():
            ps = sorted(ps)
            for (s1, s3) in ps:
                for (s1p, s3p) in ps:
                    acc = 0.0 + 0.0j
                    for (r2, r4), row in items.items():
                        a = row.get((s1, s3))
                        b = row.get((s1p, s3p))
                        if a is None or b is None:
                            continue
                        s2s, s2r = pr(r2, True)
                        s4s, s4r = g.edges[r4]
                        wgt = (
                            phi[s2r]
                            * math.sqrt(phi[pr(s3, True)[0]] * phi[pr(s3p, True)[0]])
                            / (phi[s2s] * phi[s4s])
                        )
                        acc += wgt * a * b.conjugate()
                    want = 1.0 if (s1, s3) == (s1p, s3p) else 0.0
                    worst = max(worst, abs(acc - want))
        return worst


def _conn_even_value(g, U, r1, r2, r3, r4):
    n = g.n
    qp = cmath.exp(2j * math.pi / (3 * n))
    qm = cmath.exp(-1j * math.pi / (3 * n))
    delta = 1.0 if (r1 == r3 and r2 == r4) else 0.0
    return qp * delta - qm * U.get(((r1, r2), (r3, r4)), 0.0 + 0.0j)


def connection(g: FusionGraph, cells: CellSystem, parity: str) -> Connection:
    """Connection for squares of the given parity ('even' or 'odd'),
    built once per cell system and kept in ``cells.connections``."""
    if parity not in cells.connections:
        cells.connections[parity] = _build_connection(g, cells, parity)
    return cells.connections[parity]


def _build_connection(g: FusionGraph, cells: CellSystem, parity: str) -> Connection:
    phi = g.phi
    U = cells.U
    X: dict = {}
    if parity == "even":
        for r1 in range(len(g.edges)):
            v = g.range(r1)
            u = g.source(r1)
            for r2 in g.out_edges[v]:
                w = g.range(r2)
                for r3 in g.out_edges[u]:
                    for r4 in g.out_edges[g.range(r3)]:
                        if g.range(r4) != w:
                            continue
                        val = _conn_even_value(g, U, r1, r2, r3, r4)
                        if abs(val) > _CHOP:
                            X[(r1, r2, r3, r4)] = val
        return Connection(g, "even", X)
    if parity != "odd":
        raise ValueError("parity must be 'even' or 'odd'")
    for r1 in range(len(g.edges)):
        u, v = g.edges[r1]
        for r2 in g.in_edges[v]:  # graph edge w -> v, walked backward
            w = g.source(r2)
            for r3 in g.in_edges[u]:  # graph edge x -> u, walked backward
                x = g.source(r3)
                for r4 in g.out_edges[x]:
                    if g.range(r4) != w:
                        continue
                    ratio = math.sqrt(
                        phi[g.source(r3)] * phi[g.range(r2)]
                        / (phi[g.range(r3)] * phi[g.source(r2)])
                    )
                    val = ratio * _conn_even_value(g, U, r4, r2, r3, r1).conjugate()
                    if abs(val) > _CHOP:
                        X[(r1, r2, r3, r4)] = val
    return Connection(g, "odd", X)


# ---------------------------------------------------------------------------
# basis change, inclusions, flatness

def _swap_one_path(g, conn, path, t, inverse):
    """Swap steps (t, t+1) of one path through the connection.

    Forward: (vertical, horizontal) -> (horizontal, vertical).
    Inverse: the other way, using the conjugate coefficients.
    """
    if inverse:
        h, vstep = path[t], path[t + 1]
        if h[1] != 1:
            raise ValueError("expected forward step first for inverse swap")
        vdir = vstep[1]
    else:
        vstep, h = path[t], path[t + 1]
        if h[1] != 1:
            raise ValueError("expected forward step second for swap")
        vdir = vstep[1]
    start = step_ends(g, path[t])[0]
    end = step_ends(g, path[t + 1])[1]
    out = {}
    for key, val in conn.X.items():
        r1, r2, r3, r4 = key
        if vdir == 1:
            # even squares: left r3 = vertical before, top r1 = horizontal after
            old = ((r3, 1), (r4, 1))
            new = ((r1, 1), (r2, 1))
        else:
            # odd squares: left r3 walked backward, right r2 walked backward
            old = ((r3, -1), (r4, 1))
            new = ((r1, 1), (r2, -1))
        if inverse:
            old, new = new, old
            val = val.conjugate()
        if (path[t], path[t + 1]) != old:
            continue
        q = path[:t] + new + path[t + 2:]
        out[q] = out.get(q, 0.0 + 0.0j) + val
    # sanity: every output path must connect the same endpoints
    for q in out:
        if step_ends(g, q[t])[0] != start or step_ends(g, q[t + 1])[1] != end:
            raise AssertionError("swap broke the path")
    return out


def basis_change(
    g: FusionGraph,
    cells: CellSystem,
    x: PathAlgElement,
    t: int,
    inverse: bool = False,
) -> PathAlgElement:
    """Re-express an element through the connection at step positions
    (t, t+1): forward turns a (vertical, horizontal) step pair into
    (horizontal, vertical), inverse undoes it.  The second path of each
    pair transforms with the conjugate coefficients."""
    # a forward vertical step crosses an even square, a reverse one an odd
    conn = {1: connection(g, cells, "even"), -1: connection(g, cells, "odd")}
    terms: dict = {}
    cache1: dict = {}
    for (p1, p2), c in x.terms.items():
        for p, store in ((p1, cache1), (p2, cache1)):
            if p not in store:
                vdir = p[t + 1][1] if inverse else p[t][1]
                store[p] = _swap_one_path(g, conn[vdir], p, t, inverse)
        for q1, a in cache1[p1].items():
            for q2, b in cache1[p2].items():
                key = (q1, q2)
                terms[key] = terms.get(key, 0.0 + 0.0j) + c * a * b.conjugate()
    return PathAlgElement(g, x.level, terms).chop()


def vertical_include(g: FusionGraph, x: PathAlgElement) -> PathAlgElement:
    """Embedding B[i,j] -> B[i+1,j]: append the next vertical step."""
    i, j = x.level
    sign = "-" if (i + 1) % 2 == 1 else "+"
    terms: dict = {}
    for (p1, p2), c in x.terms.items():
        v = path_range(g, p1)
        steps = (
            [(e, 1) for e in g.out_edges[v]]
            if sign == "-"
            else [(e, -1) for e in g.in_edges[v]]
        )
        for s in steps:
            terms[(p1 + (s,), p2 + (s,))] = c
    return PathAlgElement(g, (i + 1, j), terms)


def horizontal_include(g: FusionGraph, cells: CellSystem, x: PathAlgElement) -> PathAlgElement:
    """Embedding B[i,j] -> B[i,j+1]: append a forward step at the far end
    and transport it left past the vertical steps with the connection."""
    i, j = x.level
    terms: dict = {}
    for (p1, p2), c in x.terms.items():
        v = path_range(g, p1)
        for e in g.out_edges[v]:
            s = (e, 1)
            terms[(p1 + (s,), p2 + (s,))] = c
    y = PathAlgElement(g, (i, j + 1), terms)
    for t in range(i + j - 1, j - 1, -1):
        y = basis_change(g, cells, y, t)
    return y


def flatness_check(
    g: FusionGraph,
    cells: CellSystem,
    hmax: int,
    vmax: int,
) -> dict:
    """Max commutator norm between B[vmax,0] and B[0,hmax] inside
    B[vmax,hmax].  Report only; a flat connection gives ~0."""
    verts = [
        PathAlgElement(g, (vmax, 0), {pair: 1.0 + 0.0j})
        for pair in enumerate_pairs(g, vmax, 0)
    ]
    horiz = [
        PathAlgElement(g, (0, hmax), {pair: 1.0 + 0.0j})
        for pair in enumerate_pairs(g, 0, hmax)
    ]
    embedded_v = []
    for xv in verts:
        y = xv
        for _ in range(hmax):
            y = horizontal_include(g, cells, y)
        embedded_v.append(y)
    embedded_h = []
    for xh in horiz:
        y = xh
        for _ in range(vmax):
            y = vertical_include(g, y)
        embedded_h.append(y)
    worst = 0.0
    for a in embedded_v:
        for b in embedded_h:
            worst = max(worst, (a * b - b * a).norm())
    return {
        "graph": g.name or "graph",
        "hmax": hmax,
        "vmax": vmax,
        "pairs_checked": len(embedded_v) * len(embedded_h),
        "max_commutator": worst,
    }


# ---------------------------------------------------------------------------
# strip words and the presenting map Z

def _word_top(token, bot, labels_sigma):
    """Top boundary word of a strip, given its bottom word."""
    kind = token[0]
    if kind == "CUP":
        i = token[1]
        if not 1 <= i <= len(bot) - 1:
            raise ValueError("cup out of range")
        if bot[i] != flip(bot[i - 1]):
            raise ValueError("cup needs opposite adjacent signs")
        return bot[: i - 1] + bot[i + 1:]
    if kind == "CAP":
        i, s = token[1], token[2]
        if not 1 <= i <= len(bot) + 1:
            raise ValueError("cap out of range")
        return bot[: i - 1] + s + flip(s) + bot[i - 1:]
    if kind == "FORK_IN":
        i = token[1]
        if bot[i - 1: i + 1] != "++":
            raise ValueError("incoming fork needs '++' below")
        return bot[: i - 1] + "-" + bot[i + 1:]
    if kind == "FORK_OUT":
        i = token[1]
        if bot[i - 1: i + 1] != "--":
            raise ValueError("outgoing fork needs '--' below")
        return bot[: i - 1] + "+" + bot[i + 1:]
    if kind == "FORK_IN_INV":
        i = token[1]
        if bot[i - 1] != "+":
            raise ValueError("incoming inverted fork needs '+' below")
        return bot[: i - 1] + "--" + bot[i:]
    if kind == "FORK_OUT_INV":
        i = token[1]
        if bot[i - 1] != "-":
            raise ValueError("outgoing inverted fork needs '-' below")
        return bot[: i - 1] + "++" + bot[i:]
    if kind == "RECT":
        idx, left, right = token[1], token[2], token[3]
        if left != 0:
            raise NotImplementedError("rectangles with strings on the left")
        if len(bot) != right:
            raise ValueError("rectangle interface mismatch")
        return labels_sigma[idx] + bot
    raise ValueError(f"unknown strip token {kind!r}")


def _apply_cup(g, phi, vec, i):
    out = {}
    for p, c in vec.items():
        if p[i] != step_reverse(p[i - 1]):
            continue
        a, b = step_ends(g, p[i - 1])
        q = p[: i - 1] + p[i + 1:]
        out[q] = out.get(q, 0.0 + 0.0j) + c * math.sqrt(phi[b] / phi[a])
    return out


def _apply_cap(g, phi, vec, i, sign):
    out = {}
    for p, c in vec.items():
        v = path_range(g, p[: i - 1])
        steps = (
            [(e, 1) for e in g.out_edges[v]]
            if sign == "-"
            else [(e, -1) for e in g.in_edges[v]]
        )
        for s in steps:
            b = step_ends(g, s)[1]
            q = p[: i - 1] + (s, step_reverse(s)) + p[i - 1:]
            out[q] = out.get(q, 0.0 + 0.0j) + c * math.sqrt(phi[b] / phi[v])
    return out


def _apply_fork(g, cells, phi, vec, i, kind):
    """Trivalent-vertex strips.

    FORK_IN / FORK_OUT merge the bottom pair (i, i+1) into one top string;
    FORK_IN_INV / FORK_OUT_INV split the bottom string i into a top pair.
    The weight is W(triangle)/sqrt(phi phi) over the single string's
    endpoints: the plain weight at a sink vertex (all strings inward),
    the conjugate at a source.
    """
    out = {}
    for p, c in vec.items():
        if kind in ("FORK_IN", "FORK_OUT"):
            b1, b2 = p[i - 1], p[i]
            a = step_ends(g, b1)[0]
            b = step_ends(g, b2)[1]
            coeff0 = c / math.sqrt(phi[a] * phi[b])
            if kind == "FORK_IN":
                # bottom '++', top '-': triangle a->b, b->., .->a
                cands = [e for e in g.out_edges[a] if g.range(e) == b]
                for e in cands:
                    w = cells.W(e, b2[0], b1[0])
                    if w == 0:
                        continue
                    q = p[: i - 1] + ((e, 1),) + p[i + 1:]
                    out[q] = out.get(q, 0.0 + 0.0j) + coeff0 * w
            else:
                # bottom '--', top '+': graph edge b->a on top
                cands = [e for e in g.out_edges[b] if g.range(e) == a]
                for e in cands:
                    w = cells.W(e, b1[0], b2[0]).conjugate()
                    if w == 0:
                        continue
                    q = p[: i - 1] + ((e, -1),) + p[i + 1:]
                    out[q] = out.get(q, 0.0 + 0.0j) + coeff0 * w
        else:
            b1 = p[i - 1]
            a, cv = step_ends(g, b1)
            coeff0 = c / math.sqrt(phi[a] * phi[cv])
            if kind == "FORK_IN_INV":
                # bottom '+', top '--': paths a->b->cv forward
                for e1 in g.out_edges[a]:
                    bmid = g.range(e1)
                    for e2 in g.out_edges[bmid]:
                        if g.range(e2) != cv:
                            continue
                        w = cells.W(e1, e2, b1[0])
                        if w == 0:
                            continue
                        q = p[: i - 1] + ((e1, 1), (e2, 1)) + p[i:]
                        out[q] = out.get(q, 0.0 + 0.0j) + coeff0 * w
            elif kind == "FORK_OUT_INV":
                # bottom '-', top '++': graph edges b->a and cv->b
                for e1 in g.in_edges[a]:
                    bmid = g.source(e1)
                    for e2 in g.in_edges[bmid]:
                        if g.source(e2) != cv:
                            continue
                        w = cells.W(e1, b1[0], e2).conjugate()
                        if w == 0:
                            continue
                        q = p[: i - 1] + ((e1, -1), (e2, -1)) + p[i:]
                        out[q] = out.get(q, 0.0 + 0.0j) + coeff0 * w
            else:
                raise ValueError(kind)
    return out


def _apply_rect(g, vec, xvec):
    out = {}
    for gamma, a in xvec.items():
        for nu, b in vec.items():
            q = gamma + nu
            out[q] = out.get(q, 0.0 + 0.0j) + a * b
    return out


def element_to_pathvec(x: PathAlgElement):
    """Closed-path vector of an element: p1 followed by p2 reversed,
    weighted by sqrt(phi) at the common endpoint (the inverse of the
    closed-diagram normalization applied at the end of ``present_Z``)."""
    phi = x.graph.phi
    vec = {}
    for (p1, p2), c in x.terms.items():
        gamma = p1 + tuple(step_reverse(s) for s in reversed(p2))
        w = math.sqrt(phi[path_range(x.graph, p1)])
        vec[gamma] = vec.get(gamma, 0.0 + 0.0j) + c * w
    return vec


def strip_boundary(strips, labels) -> str:
    """Outer boundary word of a top-to-bottom strip word, built from the
    bottom up; ValueError (or IndexError, TypeError) if a strip does not
    fit the word below it."""
    labels_sigma = [sigma_word(*x.level) for x in labels or []]
    sigma = ""
    for token in reversed(strips):
        sigma = _word_top(token, sigma, labels_sigma)
    return sigma


def present_Z(strips, labels, g: FusionGraph, cells: CellSystem):
    """Evaluate a top-to-bottom word of strips on labelled rectangles.

    Returns ``(sigma, vec)``: the outer boundary word and the resulting
    vector over paths from the distinguished vertex, including the
    closed-diagram normalization 1/sqrt(phi at the half-way vertex) for
    even boundary length.
    """
    phi = g.phi
    sigma = strip_boundary(strips, labels)
    vec = {(): 1.0 + 0.0j}
    for token in reversed(strips):
        kind = token[0]
        if kind == "CUP":
            vec = _apply_cup(g, phi, vec, token[1])
        elif kind == "CAP":
            vec = _apply_cap(g, phi, vec, token[1], token[2])
        elif kind.startswith("FORK"):
            vec = _apply_fork(g, cells, phi, vec, token[1], kind)
        elif kind == "RECT":
            vec = _apply_rect(g, vec, element_to_pathvec(labels[token[1]]))
        else:
            raise ValueError(kind)
        vec = {p: c for p, c in vec.items() if abs(c) > _CHOP}
    if len(sigma) % 2 == 0 and sigma:
        half = len(sigma) // 2
        vec = {
            p: c / math.sqrt(phi[path_range(g, p[:half])])
            for p, c in vec.items()
        }
    return sigma, vec


def pathvec_to_element(g: FusionGraph, sigma: str, vec, i: int, j: int) -> PathAlgElement:
    if sigma != sigma_word(i, j):
        raise ValueError("boundary word does not match the level")
    m = i + j
    terms = {}
    for p, c in vec.items():
        p1 = p[:m]
        p2 = tuple(step_reverse(s) for s in reversed(p[m:]))
        key = (p1, p2)
        terms[key] = terms.get(key, 0.0 + 0.0j) + c
    return PathAlgElement(g, (i, j), terms).chop()


def z_element(strips, labels, g, cells, i, j) -> PathAlgElement:
    sigma, vec = present_Z(strips, labels, g, cells)
    return pathvec_to_element(g, sigma, vec, i, j)


# ---------------------------------------------------------------------------
# named strip words

def _word_from_matching(sigma: str, arcs):
    """Top-to-bottom cap word realizing a non-crossing perfect matching."""
    arcs = sorted(arcs)
    for a, b in arcs:
        if sigma[b - 1] != flip(sigma[a - 1]):
            raise ValueError("matched endpoints must carry opposite signs")
    # insert outermost arcs first (bottom strips), inner ones later (top)
    order = sorted(arcs, key=lambda ab: ab[1] - ab[0], reverse=True)
    present: list = []
    tokens_bottom_up = []
    for a, b in order:
        pos = sum(1 for q in present if q < a) + 1
        tokens_bottom_up.append(("CAP", pos, sigma[a - 1]))
        present.extend((a, b))
    return list(reversed(tokens_bottom_up))


def word_identity(i: int, j: int):
    m = i + j
    sigma = sigma_word(i, j)
    return _word_from_matching(sigma, [(q, 2 * m + 1 - q) for q in range(1, m + 1)])


def word_f(i: int, j: int, l: int):
    """Cup-cap word at vertical position l (the diagram whose image is
    [3] times the Jones projection)."""
    if not 1 <= l <= i:
        raise ValueError("l out of range")
    m = i + j
    sigma = sigma_word(i, j)
    a = j + l
    arcs = [(a, a + 1)]
    if a != m:
        arcs.append((2 * m - a, 2 * m + 1 - a))
    arcs += [
        (q, 2 * m + 1 - q)
        for q in range(1, m + 1)
        if q not in (a, a + 1)
    ]
    return _word_from_matching(sigma, arcs)


def word_w(i: int, j: int, k: int):
    """Strip word of the Hecke tangle whose image is U_{-k}."""
    if not 0 <= k <= j - 1:
        raise ValueError("k out of range")
    m = i + j
    sigma = sigma_word(i, j)
    a = j - 1 - k if k <= j - 2 else j
    if a == j and i == 0:
        raise ValueError("corner tangle needs a vertical string")
    word = []
    # bottom-up: outer through-strands, the middle edge of the coupling
    # vertex pair as a cap, inner through-strands, then the two forks
    for q in range(1, a):
        word.append(("CAP", q, sigma[q - 1]))
    word.append(("CAP", a, "+"))
    for t, q in enumerate(range(a + 2, m + 1)):
        word.append(("CAP", a + 1 + t, sigma[q - 1]))
    word.append(("FORK_OUT_INV", 2 * m - a - 1))
    word.append(("FORK_IN_INV", a))
    return list(reversed(word))


def word_hexagon():
    """The six-vertex diagram at level (3, 0)."""
    return [
        ("FORK_IN", 1),
        ("FORK_OUT_INV", 2),
        ("FORK_IN_INV", 2),
        ("FORK_OUT_INV", 2),
        ("FORK_IN_INV", 2),
        ("FORK_OUT_INV", 1),
        ("CAP", 1, "-"),
    ]


def word_closure(i: int, j: int):
    """Full trace closure of a rectangle at level (i, j)."""
    m = i + j
    return [("CUP", q) for q in range(1, m + 1)] + [("RECT", 0, 0, 0)]


def word_inclusion(i: int, j: int):
    """Vertical inclusion of a level-(i, j) rectangle into (i+1, j)."""
    m = i + j
    s = "-" if (i + 1) % 2 == 1 else "+"
    return [("CAP", m + 1, s), ("RECT", 0, 0, 0)]


def word_cond_exp(i: int, j: int):
    """Partial closure of a level-(i+1, j) rectangle down to (i, j);
    divide the image by [3] for the trace-preserving expectation."""
    m = i + j + 1
    return [("CUP", m), ("RECT", 0, 0, 0)]


def word_insert():
    """The bare insertion tangle: Z of it is the label itself."""
    return [("RECT", 0, 0, 0)]


def cond_exp(g: FusionGraph, cells: CellSystem, x: PathAlgElement) -> PathAlgElement:
    """Trace-preserving conditional expectation B[i+1,j] -> B[i,j]."""
    i1, j = x.level
    if i1 < 1:
        raise ValueError("no vertical step to close")
    y = z_element(word_cond_exp(i1 - 1, j), [x], g, cells, i1 - 1, j)
    return y.scale(1.0 / qnum(3, g.n))
