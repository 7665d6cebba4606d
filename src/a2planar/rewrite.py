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

``enumerate_basis`` builds the reduced (non-elliptic) webs on a boundary
word, one web per closed dominant walk and with no search:
``web.strip_word_web`` builds each, unchecked, from its strip word
(``states.basis_words``).  Each finished web is validated, and the
result is certified against ``oracle.walk_dim`` before it is returned.
"""

from __future__ import annotations

from .oracle import walk_dim
from .scalar import Laurent, alpha, collect, delta
from .states import basis_words
from .web import (
    CROSSINGS,
    TRIVALENT,
    Web,
    _glue,
    strip_word_web,
)

__all__ = [
    "find_redexes",
    "apply_redex",
    "expand_crossing",
    "first_crossing",
    "is_reduced",
    "normalize",
    "enumerate_basis",
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
    # keep the edges with no end on a port of a dropped vertex that is not spliced
    edges = [
        (a, b) for a, b in w.edges
        if not (a[1] != -1 and a[0] in drop_verts and a not in partner)
        and not (b[1] != -1 and b[0] in drop_verts and b not in partner)
    ]
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
        items = [(items, Laurent.one())]
    stack = list(items.items() if isinstance(items, dict) else items)
    return collect(_reduced(stack, strategy, rng))


def _reduced(stack, strategy, rng):
    """Rewrite the (web, coefficient) pairs popped off ``stack``, pushing
    what each rewrite gives back on it; yield each reduced web with its
    coefficient as it is reached."""
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
            yield w, c
            continue
        red = _pick(redexes, strategy, rng)
        stack.extend((w2, c * k) for k, w2 in apply_redex(w, red))


# -- basis enumeration ----------------------------------------------------


def enumerate_basis(sigma: str) -> list[Web]:
    """All reduced webs with the given boundary word on top (and no bottom).

    One web per closed dominant walk of ``sigma``, in the order of the state
    strings, each built from its strip word (``basis_words``).  The list is
    certified before it is returned: every web is valid (``WebError``
    otherwise), every web is reduced, the canonical keys are pairwise
    distinct and the count equals ``walk_dim``, which by Kuperberg's theorem
    makes it the whole basis; otherwise ``ArithmeticError`` is raised.
    """
    sigma = str(sigma)
    basis = [strip_word_web(word) for word in basis_words(sigma)]
    for w in basis:
        w.validate()
    distinct = len({w.canonical_key() for w in basis}) == len(basis)
    if not distinct or len(basis) != walk_dim(sigma) or not all(map(is_reduced, basis)):
        raise ArithmeticError(f"grown webs on {sigma!r} are not a basis")
    return basis
