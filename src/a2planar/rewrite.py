"""Diagram reduction.

Local rewrites on webs, each strictly decreasing (crossings, vertices,
loops) in lexicographic order, so normalization terminates:

* a free loop is removed for a factor ``[3]``;
* a two-sided internal face (digon) between a sink and a source is smoothed
  to a single strand for a factor ``[2]``;
* a four-sided internal face (square) of alternating trivalent vertices is
  replaced by the sum of its two planar reconnections, both with
  coefficient 1;
* a crossing is expanded into the parallel smoothing and the trivalent
  pair, with coefficients ``q^(2/3)`` and ``-q^(-1/3)`` (positive) or their
  bar conjugates (negative).

``normalize`` applies these to a fixed point.  The order in which digon and
square redexes are picked is pluggable so confluence can be exercised; the
result is a dict mapping reduced webs to Laurent coefficients.

``enumerate_basis`` grows all reduced (non-elliptic) webs on a given
boundary word by attaching cups and trivalent vertices along adjacent sign
pairs, deduplicating canonically; the counts are checked elsewhere against
a representation-theoretic oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .scalar import Laurent, alpha, delta
from .web import (
    CROSSINGS,
    TRIVALENT,
    Web,
    WebError,
    _glue,
    cupcap_web,
    flip,
    identity_web,
    through_strands,
    wgen_web,
)

__all__ = [
    "find_redexes",
    "apply_redex",
    "expand_crossing",
    "first_crossing",
    "is_reduced",
    "normalize",
    "enumerate_basis",
    "random_reducible_web",
    "STRATEGIES",
]

STRATEGIES = ("first", "last", "random", "digon-first", "square-first")


# -- redex detection ------------------------------------------------------


def _internal_faces(w: Web):
    all_edges, n_real, faces = w.embedding()
    out = []
    for face in faces:
        if all(i < n_real for i, _ in face):
            out.append(face)
    return all_edges, out


def _dart_ends(all_edges, dart):
    i, d = dart
    a, b = all_edges[i]
    return (a, b) if d == 0 else (b, a)


def find_redexes(w: Web) -> list:
    """All digon and square redexes, in a deterministic order.

    Returns tuples ``('digon', u, v)`` (sink u, source v) and
    ``('square', corners)`` with corners listed around the face as
    ``(vertex, face_slots, external_slot)``.
    """
    redexes = []
    all_edges, faces = _internal_faces(w)
    for face in faces:
        k = len(face)
        if k not in (2, 4):
            continue
        # corner j sits between dart j and dart j+1
        corners = []
        ok = True
        for j in range(k):
            _, head = _dart_ends(all_edges, face[j])
            tail, _ = _dart_ends(all_edges, face[(j + 1) % k])
            v = head[0]
            if tail[0] != v or w.verts[v] not in TRIVALENT:
                ok = False
                break
            ext = ({0, 1, 2} - {head[1], tail[1]})
            if len(ext) != 1:
                ok = False
                break
            corners.append((v, w.verts[v], ext.pop()))
        if not ok or len({v for v, _, _ in corners}) != k:
            continue
        if k == 2:
            sink = next(c for c in corners if c[1] == "sink")
            source = next(c for c in corners if c[1] == "source")
            redexes.append(("digon", sink, source))
        else:
            kinds = [kind for _, kind, _ in corners]
            if kinds[0] == kinds[1]:
                continue  # squares must alternate (they always do, but be safe)
            redexes.append(("square", tuple(corners)))
    return redexes


def first_crossing(w: Web):
    for v in sorted(w.verts):
        if w.verts[v] in CROSSINGS:
            return v
    return None


def is_reduced(w: Web) -> bool:
    return w.loops == 0 and first_crossing(w) is None and not find_redexes(w)


# -- redex application ----------------------------------------------------


def _surgery(w: Web, drop_verts, partner) -> Web:
    """Remove the given vertices, splicing their remaining edge ends
    according to ``partner`` (pairs of ports that now connect)."""
    keep = []
    for a, b in w.edges:
        if a in partner or b in partner:
            keep.append((a, b))
        elif a[1] != -1 and a[0] in drop_verts:
            continue
        elif b[1] != -1 and b[0] in drop_verts:
            continue
        else:
            keep.append((a, b))
    # edges fully inside the redex are those joining two dropped ports not
    # in partner; the filter above kept anything touching a partner port
    edges = []
    for a, b in keep:
        a_in = a[1] != -1 and a[0] in drop_verts and a not in partner
        b_in = b[1] != -1 and b[0] in drop_verts and b not in partner
        if a_in or b_in:
            continue
        edges.append((a, b))
    new_edges, extra = _glue(edges, partner)
    verts = {v: k for v, k in w.verts.items() if v not in drop_verts}
    return Web(w.top, w.bot, verts, new_edges, w.loops + extra, check=False)


def apply_redex(w: Web, redex) -> list[tuple[Laurent, Web]]:
    if redex[0] == "digon":
        _, (u, _, su), (v, _, sv) = redex
        partner = {(u, su): (v, sv), (v, sv): (u, su)}
        return [(delta(), _surgery(w, {u, v}, partner))]
    _, corners = redex
    out = []
    for pairing in ((0, 2), (1, 3)):
        partner = {}
        for j in pairing:
            (va, _, sa) = corners[j]
            (vb, _, sb) = corners[(j + 1) % 4]
            partner[(va, sa)] = (vb, sb)
            partner[(vb, sb)] = (va, sa)
        drop = {v for v, _, _ in corners}
        out.append((Laurent.one(), _surgery(w, drop, partner)))
    return out


def expand_crossing(w: Web, c: int) -> list[tuple[Laurent, Web]]:
    kind = w.verts[c]
    pos = kind == "xpos"
    # parallel smoothing: in-slot 0 continues out slot 1, in 3 out 2
    partner = {(c, 0): (c, 1), (c, 1): (c, 0), (c, 3): (c, 2), (c, 2): (c, 3)}
    par = _surgery(w, {c}, partner)
    # trivalent smoothing: sink s absorbs the in-strings, source r the outs
    s = max(w.verts) + 1
    r = s + 1
    remap = {(c, 0): (s, 1), (c, 3): (s, 0), (c, 1): (r, 1), (c, 2): (r, 2)}
    verts = {v: k for v, k in w.verts.items() if v != c}
    verts[s] = "sink"
    verts[r] = "source"
    edges = [
        (remap.get(a, a), remap.get(b, b)) for a, b in w.edges
    ]
    edges.append(((r, 0), (s, 2)))
    tri = Web(w.top, w.bot, verts, edges, w.loops, check=False)
    if pos:
        return [(Laurent.t(2), par), (Laurent.t(-1, -1), tri)]
    return [(Laurent.t(-2), par), (Laurent.t(1, -1), tri)]


# -- normalization --------------------------------------------------------


def _pick(redexes, strategy, rng):
    if strategy == "first":
        return redexes[0]
    if strategy == "last":
        return redexes[-1]
    if strategy == "random":
        if rng is None:
            raise ValueError("strategy 'random' needs an rng")
        return redexes[rng.randrange(len(redexes))]
    if strategy == "digon-first":
        for r in redexes:
            if r[0] == "digon":
                return r
        return redexes[0]
    if strategy == "square-first":
        for r in redexes:
            if r[0] == "square":
                return r
        return redexes[0]
    raise ValueError(f"unknown strategy {strategy!r}")


def normalize(items, strategy: str = "first", rng=None) -> dict[Web, Laurent]:
    """Reduce to a linear combination of reduced webs.

    ``items`` may be a single web, a dict web -> coefficient, or an
    iterable of (web, coefficient) pairs.
    """
    if isinstance(items, Web):
        stack = [(items, Laurent.one())]
    elif isinstance(items, dict):
        stack = [(w, c) for w, c in items.items()]
    else:
        stack = list(items)
    result: dict[Web, Laurent] = {}
    while stack:
        w, c = stack.pop()
        if c.is_zero():
            continue
        if w.loops:
            c = c * alpha() ** w.loops
            w = Web(w.top, w.bot, w.verts, w.edges, 0, check=False)
        cr = first_crossing(w)
        if cr is not None:
            stack.extend((w2, c * k) for k, w2 in expand_crossing(w, cr))
            continue
        redexes = find_redexes(w)
        if not redexes:
            prev = result.get(w)
            tot = c if prev is None else prev + c
            if tot.is_zero():
                result.pop(w, None)
            else:
                result[w] = tot
            continue
        red = _pick(redexes, strategy, rng)
        stack.extend((w2, c * k) for k, w2 in apply_redex(w, red))
    return result


# -- basis enumeration ----------------------------------------------------


def _attach_cup(s: str, i: int) -> Web:
    s2 = s[:i] + s[i + 2 :]
    w = Web(s, flip(s2), check=False)
    edges = through_strands(w, i, shift=2)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    edges.append((ti, tj) if s[i] == "-" else (tj, ti))
    return Web(s, flip(s2), {}, edges)


def _attach_tri(s: str, i: int) -> Web:
    merged = "+" if s[i] == "-" else "-"
    s2 = s[:i] + merged + s[i + 2 :]
    w = Web(s, flip(s2), check=False)
    edges = through_strands(w, i, shift=1)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    bi = w.bot_port(i)
    if s[i] == "-":
        verts = {0: "sink"}
        edges += [(ti, (0, 1)), (tj, (0, 0)), (bi, (0, 2))]
    else:
        verts = {0: "source"}
        edges += [((0, 1), ti), ((0, 0), tj), ((0, 2), bi)]
    return Web(s, flip(s2), verts, edges)



def _attach_h(s: str, i: int) -> Web:
    """A horizontal bar between the opposite-signed strands i, i+1.

    Two trivalent vertices joined by a bar; below it the two signs are
    swapped.  This is the growth move that cannot be expressed by cups and
    single vertices alone.
    """
    if s[i] == s[i + 1]:
        raise WebError("bar move needs opposite adjacent signs")
    s2 = s[: i] + s[i + 1] + s[i] + s[i + 2 :]
    w = Web(s, flip(s2), check=False)
    edges = through_strands(w, i)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    bi, bj = w.bot_port(i), w.bot_port(i + 1)
    if s[i] == "-":
        # left sink fed from above and below, right source feeding both
        verts = {0: "sink", 1: "source"}
        edges += [(ti, (0, 1)), (bi, (0, 2)), ((1, 1), (0, 0)), ((1, 0), tj), ((1, 2), bj)]
    else:
        verts = {0: "source", 1: "sink"}
        edges += [((0, 1), ti), ((0, 2), bi), ((0, 0), (1, 1)), (tj, (1, 0)), (bj, (1, 2))]
    return Web(s, flip(s2), verts, edges)


def enumerate_basis(
    sigma: str, h_budget: int | None = None, max_frontier: int = 200_000
) -> list[Web]:
    """All reduced webs with the given boundary word on top (and no bottom).

    Grows diagrams downward by attaching, at every adjacent position, a cup
    or a bar (opposite signs) or a trivalent vertex (equal signs), keeping
    results that admit no further reduction.  Bar moves preserve the word
    length, so their number is budgeted; by default the budget is raised
    until the web set stops growing.  The counts are cross-checked against
    an independent dimension oracle in the test suite.
    """
    sigma = str(sigma)

    @lru_cache(maxsize=None)
    def grow(s: str, h: int):
        if s == "":
            return (Web("", "", {}, [], 0),)
        seen = {}

        def keep(w):
            if is_reduced(w):
                seen[w.canonical_key()] = w

        for i in range(len(s) - 1):
            if s[i] != s[i + 1]:
                att = _attach_cup(s, i)
                for w2 in grow(flip(att.bot), h):
                    keep(att.compose(w2, check=False))
                if h > 0:
                    att = _attach_h(s, i)
                    for w2 in grow(flip(att.bot), h - 1):
                        keep(att.compose(w2, check=False))
            else:
                att = _attach_tri(s, i)
                for w2 in grow(flip(att.bot), h):
                    keep(att.compose(w2, check=False))
            if len(seen) > max_frontier:
                raise WebError("basis enumeration frontier exceeded")
        return tuple(seen.values())

    if h_budget is not None:
        return list(grow(sigma, h_budget))
    prev = None
    h = 0
    while True:
        out = grow(sigma, h)
        if prev is not None and len(out) == len(prev):
            return list(out)
        prev = out
        h += 1


# -- random reducible webs (for confluence experiments) -------------------


def random_reducible_web(rng, max_signs: int = 4, layers: int = 4) -> Web:
    """A random crossing-free web, typically containing redexes."""
    n = rng.randrange(2, max_signs + 1)
    sigma = "".join(rng.choice("+-") for _ in range(n))
    w = identity_web(sigma)
    for _ in range(rng.randrange(1, layers + 1)):
        i = rng.randrange(n - 1) if n > 1 else 0
        if n < 2:
            break
        if sigma[i] == sigma[i + 1]:
            gen = wgen_web(sigma, i)
        else:
            gen = cupcap_web(sigma, i)
        w = w.compose(gen)
    if rng.random() < 0.7:
        w = w.compose(w.star())
    return w
