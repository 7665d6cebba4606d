"""Path-pair algebras on a fusion graph.

A double ladder of finite-dimensional algebras ``B[i,j]`` is spanned by
pairs of equal-length paths from the distinguished vertex with a common
endpoint.  A path of shape ``(i, j)`` takes ``j`` horizontal steps
(forward on the graph) followed by ``i`` vertical steps that alternate
forward / reverse starting forward.  On top of that skeleton this module
provides

* the path enumeration and ``dims``, which live in ``graph`` (so that
  ``dims`` runs without numpy) and are imported here,
* elements as one dense complex block per end vertex (the algebra is the
  sum over v of the matrices on the paths ending at v), over a path index
  kept on the graph for each sign string, with the Markov trace,
* Hecke operators ``make_U`` built from the Boltzmann weights and Jones
  projections ``make_e`` on the vertical steps, from their path formulas,
* the connection between the two path presentations of a square of the
  ladder, with unitarity and commuting-square residuals, both frames of
  ``graph.gram_residual``; it builds one swap matrix per end vertex, so a
  single-square basis change is one conjugation per block,
* the horizontal/vertical inclusions, and a flatness report that moves
  B[v,0] up to level (v, h) by one product T of swap matrices per end
  vertex and reads the commutators with the embedded B[0,h] off each
  moved matrix unit, by the commutant of B[0,h], without forming them, and
* ``present_Z``: evaluation of a diagram given as a word of horizontal
  strips (cups, caps, trivalent forks, labelled rectangles) as a vector
  of paths, together with builders for the named strip words.  A cup,
  cap or fork is the signs it replaces and the signs it puts in their
  place, by the sign rule of ``oracle.read_strip``, which
  ``web.strip_web`` shares, so that the basis webs that
  ``states.basis_words`` grows are strip words too.  One rule replaces
  the steps of each path and weighs the closed loop the old and new
  steps make: a step and its reverse by a ratio of sqrt(phi), a triangle
  by its cell over sqrt(phi phi).

All arithmetic on this side is complex floating point (64-bit); the
default comparison tolerance in the callers is 1e-10.  numpy is imported
only by the functions that build blocks, so the connection and its
residuals run without it, and so does ``present_Z``, whose labels and
result can stay ``pair_terms`` with no blocks.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from types import MappingProxyType
from typing import NamedTuple

# boltzmann_U and pf_eigen are unused here but stay importable from this
# module: perfbench/selftest.py checks that the tracer wraps them here too.
from .graph import (CellSystem, FusionGraph, boltzmann_U, dims,  # noqa: F401
                    enumerate_paths, gram_residual, level_signs, pf_eigen,
                    qnum, worst)
from .oracle import HEXAGON_WORD, flip, read_strip

__all__ = [
    "PathAlgElement",
    "Label",
    "pair_terms",
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
    "z_terms",
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


def sigma_word(i: int, j: int) -> str:
    """Boundary word of the closed-path model at level (i, j)."""
    w = level_signs(i, j)
    return w + flip(w)[::-1]


def enumerate_pairs(g: FusionGraph, i: int, j: int):
    """Basis pairs of B[i,j]: same shape, same endpoint."""
    paths = path_index(g, level_signs(i, j)).paths
    return [(p1, p2) for v in sorted(paths, key=str) for p1 in paths[v] for p2 in paths[v]]


# ---------------------------------------------------------------------------
# path indices and elements

class PathIndex:
    """The paths from the distinguished vertex along one sign string:
    ``paths[v]`` lists those that end at v, and ``where[p]`` is
    ``(v, position of p in paths[v])``."""

    def __init__(self, g: FusionGraph, signs: str):
        self.signs = signs
        self.paths: dict = {}
        for p, v in enumerate_paths(g, signs):
            self.paths.setdefault(v, []).append(p)
        self.where = {p: (v, k) for v, ps in self.paths.items() for k, p in enumerate(ps)}

    def zeros(self) -> dict:
        import numpy as np

        return {v: np.zeros((len(ps), len(ps)), dtype=complex) for v, ps in self.paths.items()}


def path_index(g: FusionGraph, signs: str) -> PathIndex:
    """The path index of a sign string, built once per graph and kept in
    ``g.path_indices``."""
    if signs not in g.path_indices:
        g.path_indices[signs] = PathIndex(g, signs)
    return g.path_indices[signs]


class PathAlgElement:
    """Element of the path-pair algebra at a fixed level.

    It is stored as one dense complex block per end vertex v, whose rows
    and columns follow ``index.paths[v]``.  ``index`` belongs to the sign
    string of the level, except after a ``basis_change`` that leaves a
    horizontal step partway past the vertical ones, as in the middle of
    ``horizontal_include``.
    """

    __slots__ = ("graph", "level", "index", "blocks")

    def __init__(self, graph: FusionGraph, level, terms=None):
        self.graph = graph
        self.level = tuple(level)
        self.index = path_index(graph, level_signs(*self.level))
        self.blocks = self.index.zeros()
        for (p1, p2), c in pair_terms(graph, self.level, terms or {}).items():
            (v, a), (_, b) = self.index.where[p1], self.index.where[p2]
            self.blocks[v][a, b] = c

    @classmethod
    def _of(cls, graph, level, index, blocks) -> "PathAlgElement":
        x = cls.__new__(cls)
        x.graph, x.level, x.index, x.blocks = graph, level, index, blocks
        return x

    def _map(self, f) -> "PathAlgElement":
        blocks = {v: f(b) for v, b in self.blocks.items()}
        return self._of(self.graph, self.level, self.index, blocks)

    def _zip(self, other: "PathAlgElement", f) -> "PathAlgElement":
        if self.graph is not other.graph or (self.level, self.index) != (other.level, other.index):
            raise ValueError("level or graph mismatch")
        blocks = {v: f(b, other.blocks[v]) for v, b in self.blocks.items()}
        return self._of(self.graph, self.level, self.index, blocks)

    @property
    def terms(self):
        """Read-only view of the coefficients not at most 1e-14, keyed by path pair."""
        out = {}
        for v, b in self.blocks.items():
            ps = self.index.paths[v]
            for a, c in zip(*(~(abs(b) <= _CHOP)).nonzero()):
                out[(ps[a], ps[c])] = complex(b[a, c])
        return MappingProxyType(out)

    def __add__(self, other: "PathAlgElement") -> "PathAlgElement":
        return self._zip(other, operator.add)

    def __sub__(self, other: "PathAlgElement") -> "PathAlgElement":
        return self._zip(other, operator.sub)

    def scale(self, c) -> "PathAlgElement":
        return self._map(lambda b: c * b)

    def __mul__(self, other):
        if not isinstance(other, PathAlgElement):
            return self.scale(other)
        return self._zip(other, operator.matmul)

    def __rmul__(self, other):
        return self.scale(other)

    def star(self) -> "PathAlgElement":
        return self._map(lambda b: b.conj().T)

    def norm(self) -> float:
        return worst(float(abs(b).max()) for b in self.blocks.values())

    def dist(self, other: "PathAlgElement") -> float:
        return (self - other).norm()

    def __repr__(self):
        return f"PathAlgElement(level={self.level}, nterms={len(self.terms)})"


def pair_terms(g: FusionGraph, level, terms) -> dict:
    """The coefficients of ``terms`` not at most 1e-14 (a NaN is kept), keyed
    by path pair, as complex numbers; ValueError unless every pair is at
    ``level`` and its two paths end at one vertex."""
    where = path_index(g, level_signs(*level)).where
    out = {}
    for (p1, p2), c in terms.items():
        try:
            (v, _), (w, _) = where[p1], where[p2]
        except KeyError:
            raise ValueError(f"path pair {(p1, p2)} is not at level {tuple(level)}") from None
        if v != w:
            raise ValueError(f"path pair {(p1, p2)} has two end vertices")
        if not abs(c) <= _CHOP:
            out[(p1, p2)] = complex(c)
    return out


def terms_to_json(terms) -> list:
    """Path-pair terms as JSON rows {p1, p2, re, im}, sorted by pair."""
    return [
        {"p1": [list(s) for s in p1], "p2": [list(s) for s in p2], "re": c.real, "im": c.imag}
        for (p1, p2), c in sorted(terms.items())
    ]


def terms_from_json(obj) -> dict:
    """Path-pair terms read from the rows of ``terms_to_json``; ValueError
    unless ``obj`` is a list of objects, each path a list of steps, each
    step an int pair (a bool is not an int), and each of ``re`` and ``im``
    a finite int or float (not a bool)."""
    if type(obj) is not list or not all(type(row) is dict for row in obj):
        raise ValueError(f"terms {obj!r} is not a list of objects")

    def path(row, key):
        if type(row[key]) is not list:
            raise ValueError(f"{key} {row[key]!r} is not a list of steps")
        for step in row[key]:
            if type(step) is not list or len(step) != 2 or not all(type(x) is int for x in step):
                raise ValueError(f"step {step!r} of {key} {row[key]!r} is not an int pair")
        return tuple(map(tuple, row[key]))

    def number(row, key):
        x = row[key]
        if type(x) not in (int, float):
            raise ValueError(f"{key} {x!r} is not a number")
        if not abs(x) <= sys.float_info.max:  # an int this large overflows a float
            raise ValueError(f"{key} {x!r} is not finite")
        return x

    return {(path(row, "p1"), path(row, "p2")): complex(number(row, "re"), number(row, "im"))
            for row in obj}


class Label(NamedTuple):
    """A rectangle label of ``present_Z`` with no blocks: a level and its
    ``pair_terms``.  A ``PathAlgElement`` serves as a label as well."""

    graph: FusionGraph
    level: tuple
    terms: dict


def identity_element(g: FusionGraph, i: int, j: int) -> PathAlgElement:
    import numpy as np

    index = path_index(g, level_signs(i, j))
    blocks = {v: np.eye(len(ps), dtype=complex) for v, ps in index.paths.items()}
    return PathAlgElement._of(g, (i, j), index, blocks)


def trace(x: PathAlgElement) -> complex:
    """Markov trace: (p, p) weighs [3]^-(i+j) * phi at the endpoint."""
    g = x.graph
    tot = sum(g.phi[v] * b.trace() for v, b in x.blocks.items())
    return complex(tot * qnum(3, g.n) ** (-sum(x.level)))


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
    return PathAlgElement(g, level, terms)


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
    runs w->v and r3 runs x->u on the graph.  Only ``X`` is kept: a swap
    matrix is as large as the blocks of its sign string, and
    ``flatness_check`` uses each one once.
    """

    def __init__(self, graph: FusionGraph, parity: str, X: dict):
        self.graph = graph
        self.parity = parity
        self.X = X

    def swap(self, signs: str, t: int, inverse: bool) -> dict:
        """The swap of steps (t, t+1) of the paths of ``signs``: per end
        vertex, the matrix whose column p holds the coefficients of p
        re-expressed with the two steps exchanged, built on each call.
        Forward, each square turns the (vertical, horizontal) pair
        down the left and across the bottom into the (horizontal, vertical)
        pair across the top and down the right; inverse goes the other way
        with the conjugate."""
        import numpy as np

        d = 1 if self.parity == "even" else -1
        old = path_index(self.graph, signs)
        new = path_index(self.graph, signs[:t] + signs[t + 1] + signs[t] + signs[t + 2:])
        if old.paths.keys() != new.paths.keys():
            raise ValueError("the swap changes the end vertices of the paths")
        by_pair: dict = {}
        for p, (v, a) in old.where.items():
            by_pair.setdefault(p[t:t + 2], []).append((p, v, a))
        S = {v: np.zeros((len(new.paths[v]), len(ps)), dtype=complex)
             for v, ps in old.paths.items()}
        for (r1, r2, r3, r4), val in self.X.items():
            before, after = ((r3, d), (r4, 1)), ((r1, 1), (r2, d))
            if inverse:
                before, after, val = after, before, val.conjugate()
            for p, v, a in by_pair.get(before, ()):
                hit = new.where.get(p[:t] + after + p[t + 2:])
                if hit is None or hit[0] != v:
                    raise ValueError("the swap leaves the paths of its end vertex")
                S[v][hit[1], a] = val
        return S

    def unitarity_residual(self) -> float:
        """``gram_residual`` of one frame per (top-left, bottom-right) corner
        pair, a row (r1, r2) over the columns (r3, r4), with t = 1."""
        g = self.graph
        end = g.range if self.parity == "even" else g.source
        frames: dict = {}
        for (r1, r2, r3, r4), val in self.X.items():
            frames.setdefault((g.source(r1), end(r2)), {}).setdefault((r1, r2), {})[(r3, r4)] = val
        return gram_residual((1.0, rows.values()) for rows in frames.values())

    def commuting_square_residual(self) -> float:
        """Residual of the weighted biunitarity identity that makes each
        square of the ladder a commuting square: ``gram_residual`` of one
        frame per (source of r1, range of r1, end of r3), t = 1, whose row
        (r1, r3) is {(r2, r4): sqrt(phi_w phi_x / (phi_v phi_y)) X}, where
        r2 runs v -> w in the parity's sense, r3 starts at x, r4 at y."""
        g, phi = self.graph, self.graph.phi
        d = 1 if self.parity == "even" else -1
        frames: dict = {}
        for (r1, r2, r3, r4), val in self.X.items():
            (v, w), (x, end) = step_ends(g, (r2, d)), step_ends(g, (r3, d))
            row = frames.setdefault((g.source(r1), g.range(r1), end), {}).setdefault((r1, r3), {})
            row[(r2, r4)] = math.sqrt(phi[w] * phi[x] / (phi[v] * phi[g.source(r4)])) * val
        return gram_residual((1.0, rows.values()) for rows in frames.values())


def connection(g: FusionGraph, cells: CellSystem, parity: str) -> Connection:
    """Connection for squares of the given parity ('even' or 'odd'),
    built once per cell system and kept in ``cells.connections``."""
    if parity not in cells.connections:
        cells.connections[parity] = _build_connection(g, cells, parity)
    return cells.connections[parity]


def _build_connection(g: FusionGraph, cells: CellSystem, parity: str) -> Connection:
    """Read both connections off ``cells.U``.  The even square
    (r1, r2, r3, r4) is q^(2/3) delta - q^(-1/3) U[(r1, r2), (r3, r4)], so
    it is nonzero only on the diagonal and on U's keys; the odd square is
    the even one at (r4, r2, r3, r1), conjugated and scaled by the phi
    ratio.  Values are chopped after both are derived; a value that is not
    finite is kept, so that the residuals see it."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    phi = g.phi
    U = cells.U
    qp = cmath.exp(2j * math.pi / (3 * g.n))
    qm = cmath.exp(-1j * math.pi / (3 * g.n))
    squares = {(r1, r2, r1, r2) for r1 in range(len(g.edges)) for r2 in g.out_edges[g.range(r1)]}
    squares.update(top + bot for top, bot in U)
    X: dict = {}
    for r1, r2, r3, r4 in squares:
        delta = 1.0 if (r1 == r3 and r2 == r4) else 0.0
        val = qp * delta - qm * U.get(((r1, r2), (r3, r4)), 0.0 + 0.0j)
        if parity == "odd":
            ratio = math.sqrt(
                phi[g.source(r3)] * phi[g.range(r2)]
                / (phi[g.range(r3)] * phi[g.source(r2)])
            )
            r1, r4, val = r4, r1, ratio * val.conjugate()
        X[(r1, r2, r3, r4)] = val
    return Connection(g, parity, {k: v for k, v in sorted(X.items()) if not abs(v) <= _CHOP})


# ---------------------------------------------------------------------------
# basis change, inclusions, flatness

def basis_change(
    g: FusionGraph,
    cells: CellSystem,
    x: PathAlgElement,
    t: int,
    inverse: bool = False,
) -> PathAlgElement:
    """Re-express an element through the connection at step positions
    (t, t+1): forward turns a (vertical, horizontal) step pair into
    (horizontal, vertical), inverse undoes it.  Each block becomes
    S x S^dagger, with S the swap matrix of its end vertex."""
    signs = x.index.signs
    if signs[t if inverse else t + 1] != "-":
        raise ValueError("the horizontal step of a swap must be forward")
    # a forward vertical step crosses an even square, a reverse one an odd
    vertical = signs[t + 1] if inverse else signs[t]
    conn = connection(g, cells, "even" if vertical == "-" else "odd")
    index = path_index(g, signs[:t] + signs[t + 1] + signs[t] + signs[t + 2:])
    blocks = {v: m @ x.blocks[v] @ m.conj().T for v, m in conn.swap(signs, t, inverse).items()}
    return PathAlgElement._of(g, x.level, index, blocks)


def _append_step(x: PathAlgElement, sign: str, level) -> PathAlgElement:
    """``x`` on the paths one step longer: each path continues by every
    step of the given sign from its end vertex."""
    import numpy as np

    index = path_index(x.graph, x.index.signs + sign)
    blocks = index.zeros()
    for v, ps in x.index.paths.items():
        for step, w in enumerate_paths(x.graph, sign, start=v):
            rows = np.array([index.where[p + step][1] for p in ps])
            blocks[w][rows[:, None], rows] = x.blocks[v]
    return PathAlgElement._of(x.graph, level, index, blocks)


def vertical_include(g: FusionGraph, x: PathAlgElement) -> PathAlgElement:
    """Embedding B[i,j] -> B[i+1,j]: append the next vertical step."""
    i, j = x.level
    return _append_step(x, "-" if (i + 1) % 2 == 1 else "+", (i + 1, j))


def horizontal_include(g: FusionGraph, cells: CellSystem, x: PathAlgElement) -> PathAlgElement:
    """Embedding B[i,j] -> B[i,j+1]: append a forward step at the far end
    and transport it left past the vertical steps with the connection."""
    i, j = x.level
    y = _append_step(x, "-", (i, j + 1))
    for t in range(i + j - 1, j - 1, -1):
        y = basis_change(g, cells, y, t)
    return y


def _transport(g: FusionGraph, cells: CellSystem, vmax: int, hmax: int) -> dict:
    """``horizontal_include`` applied ``hmax`` times to B[vmax,0], as one
    matrix T per end vertex: x becomes T (x (x) 1) T^dagger.  The columns
    of T follow the paths of ``level_signs(vmax, 0) + '-' * hmax`` and its
    rows those of ``level_signs(vmax, hmax)``.  A swap acts on two steps
    only, so appending every forward step first and then moving the k-th
    one left past the vertical steps gives the same transport."""
    import numpy as np

    signs = level_signs(vmax, 0) + "-" * hmax
    T = {w: np.eye(len(ps), dtype=complex) for w, ps in path_index(g, signs).paths.items()}
    for k in range(hmax):
        for t in range(vmax + k - 1, k - 1, -1):
            # a forward vertical step crosses an even square, a reverse one an odd
            conn = connection(g, cells, "even" if signs[t] == "-" else "odd")
            T = {w: S @ T[w] for w, S in conn.swap(signs, t, False).items()}
            signs = signs[:t] + "-" + signs[t] + signs[t + 2:]
    return T


def _prefix_blocks(g: FusionGraph, index: PathIndex, hmax: int) -> dict:
    """Per end vertex of a level-(v, hmax) index: the mask of the entries
    whose row and column paths have different horizontal prefixes, and for
    each vertex where two or more prefixes end, the rows of those prefixes
    as a (prefix, tail) array, each row of it in the order of the tails."""
    import numpy as np

    out = {}
    for w, ps in index.paths.items():
        rows: dict = {}  # prefix -> {tail: row}
        for r, p in enumerate(ps):
            rows.setdefault(p[:hmax], {})[p[hmax:]] = r
        label = np.empty(len(ps), dtype=int)
        by_end: dict = {}
        for k, (prefix, tails) in enumerate(rows.items()):
            label[list(tails.values())] = k
            by_end.setdefault(path_range(g, prefix), []).append([r for _, r in sorted(tails.items())])
        out[w] = (label[:, None] != label, [np.array(R) for R in by_end.values() if len(R) > 1])
    return out


def flatness_check(
    g: FusionGraph,
    cells: CellSystem,
    hmax: int,
    vmax: int,
) -> dict:
    """Max commutator norm between B[vmax,0] and B[0,hmax] inside
    B[vmax,hmax], over every pair of matrix units.  Report only; a flat
    connection gives ~0.

    The embedded B[0,hmax] is the sum over u of M(H_u) (x) 1, H_u the
    horizontal paths ending at u, and its commutant is the sum of the
    1 (x) x_u (Goodman, de la Harpe and Jones, "Coxeter graphs and towers of
    algebras", 1989).  For a unit b = E_{h1 h2} (x) 1, the entries of
    ab - ba are entries of a whose row and column prefixes differ, and
    differences a_{h1 h1}(s, t) - a_{h2 h2}(s, t) of its diagonal sub-blocks
    on the vertical tails s, t.  So the maximum over all b is read off each
    transported unit a, with no b built and no product taken."""
    vsigns, hsigns = level_signs(vmax, 0), "-" * hmax
    T = _transport(g, cells, vmax, hmax)
    cols = path_index(g, vsigns + hsigns)
    blocks = _prefix_blocks(g, path_index(g, level_signs(vmax, hmax)), hmax)
    paths_v = path_index(g, vsigns).paths
    norms = []
    for u, ps in paths_v.items():
        tails: dict = {}
        for tail, w in enumerate_paths(g, hsigns, start=u):
            tails.setdefault(w, []).append(tail)
        # T on the columns of p followed by each tail: E_pq (x) 1 goes to
        # T[:, P] T[:, Q]^dagger at each end vertex
        cut = [{w: T[w][:, [cols.where[p + tail][1] for tail in ts]] for w, ts in tails.items()}
               for p in ps]
        adjoint = [{w: m.conj().T for w, m in c.items()} for c in cut]
        for tp, tq in itertools.product(cut, adjoint):
            for w, m in tp.items():
                a = m @ tq[w]
                off, stacks = blocks[w]
                norms.append(float(abs(a[off]).max(initial=0.0)))
                for R in stacks:
                    d = a[R[:, :, None], R[:, None, :]]
                    norms.append(float(abs(d[:, None] - d[None]).max()))
    return {
        "graph": g.name or "graph",
        "hmax": hmax,
        "vmax": vmax,
        "pairs_checked": dims(g, vmax, 0) * dims(g, 0, hmax),
        "max_commutator": worst(norms),
    }


# ---------------------------------------------------------------------------
# strip words and the presenting map Z

def _strip(token, bot: str, labels):
    """The word on top of a strip that sits on the word ``bot``, and the
    strip's ``(position, below, above)`` from ``oracle.read_strip``, or None
    for a rectangle; ValueError unless the strip fits."""
    if not token or token[0] != "RECT":
        return read_strip(token, bot)
    if len(token) != 4:
        raise ValueError(f"strip token {list(token)!r} is not of the form ['RECT', label, 0, right]")
    i = token[1]
    if token[2] != 0:
        raise NotImplementedError("rectangles with strings on the left")
    if len(bot) != token[3]:
        raise ValueError("rectangle interface mismatch")
    if type(i) is not int or not 0 <= i < len(labels):
        raise ValueError(f"rectangle label {i!r} out of range")
    return sigma_word(*labels[i].level) + bot, None


def _apply_strip(g, cells, vec, i, below, above):
    """On each path, the ``len(below)`` steps at position i give way to
    every run of steps along ``above`` with the same ends.  The weight is
    that of the closed loop of the old steps followed by the new reversed:
    sqrt(phi_turn / phi_start) for a step and its reverse, and the cell
    W / sqrt(phi_a phi_b) for a triangle, a and b the ends of the old
    steps, conjugated when the loop runs along its edges (a source)."""
    phi = g.phi
    m = len(below)
    out: dict = {}
    for p, c in vec.items():
        old = p[i - 1:i - 1 + m]
        a = path_range(g, p[:i - 1])
        b = path_range(g, old, start=a)
        for new, end in enumerate_paths(g, above, start=a):
            if end != b:
                continue
            loop = old + tuple(step_reverse(s) for s in reversed(new))
            if len(loop) == 2:
                if loop[1] != step_reverse(loop[0]):
                    continue
                w = math.sqrt(phi[step_ends(g, loop[0])[1]] / phi[a])
            else:
                edges = [e for e, _ in loop]
                w = cells.W(*edges).conjugate() if loop[0][1] == 1 else cells.W(*edges[::-1])
                w /= math.sqrt(phi[a] * phi[b])
            q = p[:i - 1] + new + p[i - 1 + m:]
            out[q] = out.get(q, 0.0 + 0.0j) + c * w
    return out


def _apply_rect(g, vec, xvec):
    out = {}
    for gamma, a in xvec.items():
        for nu, b in vec.items():
            q = gamma + nu
            out[q] = out.get(q, 0.0 + 0.0j) + a * b
    return out


def element_to_pathvec(x):
    """Closed-path vector of an element or ``Label``: p1 followed by p2
    reversed, weighted by sqrt(phi) at the common endpoint (the inverse of
    the closed-diagram normalization applied at the end of ``present_Z``)."""
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
    labels, sigma = labels or [], ""
    for token in reversed(strips):
        sigma, _ = _strip(token, sigma, labels)
    return sigma


def present_Z(strips, labels, g: FusionGraph, cells: CellSystem):
    """Evaluate a top-to-bottom word of strips on labelled rectangles, the
    labels ``PathAlgElement``s or ``Label``s.

    Returns ``(sigma, vec)``: the outer boundary word and the resulting
    vector over paths from the distinguished vertex, including the
    closed-diagram normalization 1/sqrt(phi at the half-way vertex) for
    even boundary length.
    """
    phi = g.phi
    labels, sigma = labels or [], ""
    vec = {(): 1.0 + 0.0j}
    for token in reversed(strips):
        sigma, signs = _strip(token, sigma, labels)
        if signs is None:
            vec = _apply_rect(g, vec, element_to_pathvec(labels[token[1]]))
        else:
            vec = _apply_strip(g, cells, vec, *signs)
        vec = {p: c for p, c in vec.items() if not abs(c) <= _CHOP}
    if len(sigma) % 2 == 0 and sigma:
        half = len(sigma) // 2
        vec = {
            p: c / math.sqrt(phi[path_range(g, p[:half])])
            for p, c in vec.items()
        }
    return sigma, vec


def z_terms(strips, labels, g: FusionGraph, cells: CellSystem, i: int, j: int) -> dict:
    """The ``pair_terms`` of a strip word at level (i, j): each closed path
    of ``present_Z`` split into p1 and p2 reversed."""
    sigma, vec = present_Z(strips, labels, g, cells)
    if sigma != sigma_word(i, j):
        raise ValueError("boundary word does not match the level")
    m = i + j
    terms = {}
    for p, c in vec.items():
        key = (p[:m], tuple(step_reverse(s) for s in reversed(p[m:])))
        terms[key] = terms.get(key, 0.0 + 0.0j) + c
    return pair_terms(g, (i, j), terms)


def z_element(strips, labels, g, cells, i, j) -> PathAlgElement:
    return PathAlgElement(g, (i, j), z_terms(strips, labels, g, cells, i, j))


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
    """The six-vertex diagram at level (3, 0): ``oracle.HEXAGON_WORD``."""
    return list(HEXAGON_WORD)


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
