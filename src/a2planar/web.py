"""Planar diagram data model.

A :class:`Web` is a planar oriented graph in a rectangle, with boundary
points along the top and bottom edges and internal vertices of two shapes:

* trivalent ``sink`` (all three strings point in) and ``source`` (all out);
* tetravalent crossings ``xpos`` / ``xneg`` of two same-oriented strings.

Boundary signs are local: ``'+'`` means the string points toward that
boundary point, ``'-'`` away from it.  A morphism from the sign string
``sigma`` to ``tau`` therefore has ``top == sigma`` and ``bot == flip(tau)``.
The circular boundary word reads the top left to right and then the bottom
right to left.

Edges are oriented and recorded between *ports*.  A port is a pair
``(node, slot)``: for an internal vertex the slot is its position in the
fixed counterclockwise rotation (0..2 for trivalent, 0..3 for crossings,
with crossings taking strings in at slots 0 and 3 and out at 1 and 2, the
slot-0 string passing over for ``xpos``); for a boundary point the pair is
``(k, -1)`` with ``k`` the circular index.  Closed circles with no vertices
on them are not stored as edges but counted in ``loops``.

``compose``, ``tensor`` and the closures are one planar-tangle operation,
``_join``: it sends each boundary point of its webs to the new boundary or to
one end of a join, and splices the two strings at each join into one.

The rotation system determines an embedding; with virtual arcs joining
consecutive boundary points to close off the disk, validation checks
planarity by one Euler count over the whole web: V - E + F is 2 for each
component, the boundary's and each closed one, exactly when all are planar.
"""

from __future__ import annotations

from .oracle import HEXAGON_WORD, flip, read_strip

__all__ = [
    "Web",
    "WebError",
    "identity_web",
    "cupcap_web",
    "wgen_web",
    "crossing_web",
    "hexagon_web",
    "strip_web",
    "strip_word_web",
]

TRIVALENT = ("sink", "source")
CROSSINGS = ("xpos", "xneg")
_VALENCE = {"sink": 3, "source": 3, "xpos": 4, "xneg": 4}
_STAR_KIND = {"sink": "source", "source": "sink", "xpos": "xneg", "xneg": "xpos"}
# slot relabeling under vertical reflection + orientation reversal
_STAR_SLOT3 = {0: 0, 1: 2, 2: 1}
_STAR_SLOT4 = {0: 1, 1: 0, 2: 3, 3: 2}


class WebError(ValueError):
    pass


class Web:
    __slots__ = ("top", "bot", "verts", "edges", "loops", "_key", "_emb")

    def __init__(self, top, bot, verts=None, edges=None, loops=0, check=True):
        self.top = str(top)
        self.bot = str(bot)
        self.verts = dict(verts or {})
        self.edges = tuple((tuple(a), tuple(b)) for a, b in (edges or ()))
        self.loops = int(loops)
        self._key = None
        self._emb = None
        if check:
            self.validate()

    # -- basics -------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of boundary points."""
        return len(self.top) + len(self.bot)

    @property
    def circular(self) -> str:
        """Boundary signs read circularly: top L-to-R, then bottom R-to-L."""
        return self.top + self.bot[::-1]

    def top_port(self, k: int):
        return (k, -1)

    def bot_port(self, k: int):
        return (len(self.top) + len(self.bot) - 1 - k, -1)

    def valence(self, v: int) -> int:
        return _VALENCE[self.verts[v]]

    # -- validation ---------------------------------------------------

    def validate(self) -> None:
        if set(self.top + self.bot) - set("+-"):
            raise WebError("boundary signs must be '+' or '-'")
        if self.loops < 0:
            raise WebError("negative loop count")
        for v, kind in self.verts.items():
            if kind not in _VALENCE:
                raise WebError(f"unknown vertex kind {kind!r}")
        seen = set()
        circ = self.circular
        for a, b in self.edges:
            for p in (a, b):
                if p in seen:
                    raise WebError(f"port {p} used twice")
                seen.add(p)
                node, slot = p
                if slot == -1:
                    if not (0 <= node < self.m):
                        raise WebError(f"boundary index {node} out of range")
                else:
                    if node not in self.verts:
                        raise WebError(f"edge references unknown vertex {node}")
                    if not (0 <= slot < self.valence(node)):
                        raise WebError(f"slot {slot} out of range at vertex {node}")
            # orientation typing: a is the tail, b the head
            self._check_end(a, tail=True, circ=circ)
            self._check_end(b, tail=False, circ=circ)
        expected = {(k, -1) for k in range(self.m)}
        for v, kind in self.verts.items():
            expected.update((v, s) for s in range(_VALENCE[kind]))
        if seen != expected:
            missing = expected - seen
            raise WebError(f"unused ports: {sorted(missing)[:4]}...")
        self._check_planar()

    def _check_end(self, p, tail: bool, circ: str) -> None:
        node, slot = p
        if slot == -1:
            want = "-" if tail else "+"
            if circ[node] != want:
                raise WebError(f"boundary sign at {node} inconsistent with orientation")
            return
        kind = self.verts[node]
        if kind == "sink" and tail:
            raise WebError(f"edge leaves sink {node}")
        if kind == "source" and not tail:
            raise WebError(f"edge enters source {node}")
        if kind in CROSSINGS:
            ok = slot in (1, 2) if tail else slot in (0, 3)
            if not ok:
                raise WebError(f"crossing {node} slot {slot} wrong direction")

    # -- embedding / faces --------------------------------------------

    def embedding(self):
        """Faces of the rotation system, with the boundary closed off.

        Returns ``(all_edges, n_real, faces)``: ``all_edges`` is the real
        edge list followed by virtual arcs ``((k,-1),(k+1,-1))`` between
        consecutive circular boundary points; a face is a cyclic list of
        darts ``(edge_index, direction)``, direction 0 meaning tail-to-head.
        """
        if self._emb is not None:
            return self._emb
        m = self.m
        all_edges = list(self.edges)
        for k in range(m):
            all_edges.append(((k, -1), ((k + 1) % m, -1)))
        n_real = len(self.edges)
        # incidence lists in ccw order per node
        # internal node v: slot s -> incidence; boundary k: [real edge, arc to
        # k+1, arc to k-1]
        inc = {}
        for v, kind in self.verts.items():
            inc[v] = [None] * _VALENCE[kind]
        for k in range(m):
            inc[("b", k)] = [None, None, None]
        for i, (a, b) in enumerate(all_edges):
            for end, (node, slot) in enumerate((a, b)):
                if slot != -1:
                    inc[node][slot] = (i, end)
                elif i < n_real:
                    inc[("b", node)][0] = (i, end)
                else:
                    # virtual arc i joins k=i-n_real to k+1; at its tail
                    # (end 0) it is the "arc to k+1", at its head the
                    # "arc to k-1"
                    inc[("b", node)][1 if end == 0 else 2] = (i, end)
        # next-dart map: a dart is (edge, dir); dir 0 runs tail->head
        nxt = {}
        for node, incs in inc.items():
            val = len(incs)
            for j, (i, end) in enumerate(incs):
                arriving = (i, 0) if end == 1 else (i, 1)
                i2, end2 = incs[(j + 1) % val]
                leaving = (i2, 0) if end2 == 0 else (i2, 1)
                nxt[arriving] = leaving
        faces = []
        seen = set()
        for d0 in nxt:
            if d0 in seen:
                continue
            face = []
            d = d0
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = nxt[d]
            faces.append(face)
        self._emb = (all_edges, n_real, faces)
        return self._emb

    def _check_planar(self) -> None:
        """Each connected rotation system has V - E + F = 2 - 2g <= 2, so the
        web is planar exactly when its whole count is 2 per component."""
        all_edges, _, faces = self.embedding()
        chi = len(self.verts) + self.m - len(all_edges) + len(faces)
        comps = (1 if self.m else 0) + len(self._closed_components())
        if chi != 2 * comps:
            raise WebError(f"web is not planar (V-E+F={chi} over {comps} components)")

    def _closed_components(self) -> list:
        """The vertex sets of the components that reach no boundary point."""
        nbrs = {v: [] for v in self.verts}
        attached = []
        for (x, s), (y, t) in self.edges:
            if s != -1 and t != -1:
                nbrs[x].append(y)
                nbrs[y].append(x)
            elif s != t:  # one end on the boundary
                attached.append(x if s != -1 else y)
        seen = set()

        def flood(stack):
            comp = set()
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.extend(nbrs[v])
            return comp

        flood(attached)
        return [c for c in map(flood, ([v] for v in self.verts)) if c]

    # -- canonical form -----------------------------------------------

    def canonical_key(self):
        """Hashable key equal for planar-isotopic webs, distinct otherwise.

        Deterministic traversal anchored at the boundary; internal vertex
        slots are read relative to the arrival slot, so the key depends only
        on the cyclic rotation data.  A closed component is keyed by
        ``(kind of v, code)`` minimized over its root darts (v, s), where
        code is the traversal from the port across (v, s).  Every code of a
        component has the same length, one symbol per port, so the minimum
        is found symbol by symbol: only darts at vertices of the least kind
        are tried, and a traversal stops at the first symbol above the best
        code's symbol at that position.
        """
        if self._key is not None:
            return self._key
        verts = self.verts
        valence = {v: _VALENCE[k] for v, k in verts.items()}
        adj = {}
        for a, b in self.edges:
            adj[a] = (b, 1)
            adj[b] = (a, 0)

        # turn[v]: the far ends of v's ports in rotation order, twice over,
        # so that a slice starting at any slot reads one full turn
        turn = {v: [adj[(v, s)] for s in range(k)] * 2 for v, k in valence.items()}

        def component_code(seed, best=None):
            """The traversal code from the far ends ``seed`` of the seed
            ports, and its vertices in visiting order; None as soon as the
            code exceeds ``best``, a code of the same length, or once it ends
            equal to it."""
            newid = {}
            arrival = {}
            order = []
            code = []
            tie = best is not None
            ends = seed
            i = 0
            while True:
                for (node, slot), d in ends:
                    if slot == -1:
                        sym = (d, ("b", node))
                    elif node in newid:
                        sym = (d, ("o", newid[node], (slot - arrival[node]) % valence[node]))
                    else:
                        newid[node] = len(newid)
                        arrival[node] = slot
                        order.append(node)
                        sym = (d, ("n", newid[node], verts[node]))
                    if tie:
                        b = best[len(code)]
                        if sym != b:
                            if sym > b:
                                return None
                            tie = False
                    code.append(sym)
                if i == len(order):
                    break
                v = order[i]
                i += 1
                a0 = arrival[v]
                ends = turn[v][a0:a0 + valence[v]]
            return None if tie else (tuple(code), order)

        code, visited = component_code([adj[(k, -1)] for k in range(self.m) if (k, -1) in adj])
        comp_codes = []
        for comp in self._closed_components() if len(visited) < len(verts) else ():
            kind = min(verts[v] for v in comp)
            best = None
            for v in comp:
                if verts[v] == kind:
                    for end in turn[v][:valence[v]]:
                        found = component_code([end], best)
                        if found is not None:
                            best = found[0]
            comp_codes.append((kind, best))
        comp_codes.sort()
        self._key = (self.top, self.bot, self.loops, code, tuple(comp_codes))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Web):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (
            f"Web(top={self.top!r}, bot={self.bot!r}, "
            f"verts={len(self.verts)}, edges={len(self.edges)}, loops={self.loops})"
        )

    # -- structural operations ----------------------------------------

    def star(self) -> "Web":
        """Adjoint diagram: vertical mirror plus orientation reversal."""
        t1, b1 = len(self.top), len(self.bot)
        new_top = flip(self.bot)
        new_bot = flip(self.top)

        def mp(p):
            node, slot = p
            if slot == -1:
                if node < t1:  # old top k -> new bottom k
                    return (b1 + (t1 - 1 - node), -1)
                # old bottom position k has circular index t1 + (b1-1-k)
                k = t1 + b1 - 1 - node
                return (k, -1)
            kind = self.verts[node]
            table = _STAR_SLOT4 if kind in CROSSINGS else _STAR_SLOT3
            return (node, table[slot])

        verts = {v: _STAR_KIND[k] for v, k in self.verts.items()}
        edges = [(mp(b), mp(a)) for a, b in self.edges]
        return Web(new_top, new_bot, verts, edges, self.loops)

    def tensor(self, other: "Web") -> "Web":
        """Place ``other`` to the right of ``self``."""
        pieces = [(self, _shift(0, 0)), (other, _shift(len(self.top), len(self.bot)))]
        return _join(self.top + other.top, self.bot + other.bot, pieces)

    def compose(self, other: "Web", check: bool = True) -> "Web":
        """Stack ``self`` on top of ``other``, gluing bottom to top."""
        if flip(self.bot) != other.top:
            raise WebError(f"cannot compose: bottom {self.bot!r} does not match top {other.top!r}")
        return _join(self.top, other.bot, [(self, _upper), (other, _lower)], check)

    def close_right(self, count: int | None = None) -> "Web":
        """Join the rightmost ``count`` top/bottom pairs by nested right arcs."""
        return self._close(count, right=True)

    def close_left(self, count: int | None = None) -> "Web":
        return self._close(count, right=False)

    def _close(self, count, right: bool) -> "Web":
        t1, b1 = len(self.top), len(self.bot)
        count = min(t1, b1) if count is None else count
        if count < 0:
            raise WebError(f"cannot close {count} strands")
        if count > min(t1, b1):
            raise WebError("cannot close more strands than are present")
        # top point lt + j is joined to bottom point lb + j, for j < count
        lt, lb = (t1 - count, b1 - count) if right else (0, 0)
        if self.top[lt:lt + count] != flip(self.bot[lb:lb + count]):
            raise WebError("closure strands have inconsistent orientations")

        def place(side, k):
            lo = lt if side == "t" else lb
            if lo <= k < lo + count:
                return (0 if side == "t" else 1), k - lo
            return side, k if right else k - count

        return _join(self.top[:lt] + self.top[lt + count:],
                     self.bot[:lb] + self.bot[lb + count:], [(self, place)])

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "boundary": {"top": self.top, "bot": self.bot},
            "vertices": [{"id": v, "kind": k} for v, k in sorted(self.verts.items())],
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "loops": self.loops,
        }

    @staticmethod
    def from_json(obj: dict) -> "Web":
        """The web that ``to_json`` writes; WebError unless it and each vertex
        are objects, its boundary an object of two strings, its vertices and
        edges lists, each vertex id and the loop count an int (not a bool),
        each edge two ports and each port two ints."""
        def read(value, field):
            if type(value) is not int:
                raise WebError(f"{field} {value!r} is not an int")
            return value

        def vertex(d):
            if type(d) is not dict:
                raise WebError(f"vertex {d!r} is not an object")
            return read(d["id"], "vertex id"), d["kind"]

        def port(p):
            if type(p) is not list or len(p) != 2 or not all(type(x) is int for x in p):
                raise WebError(f"port {p!r} is not two ints")
            return tuple(p)

        def edge(e):
            if type(e) is not list or len(e) != 2:
                raise WebError(f"edge {e!r} is not two ports")
            return tuple(map(port, e))

        if type(obj) is not dict:
            raise WebError(f"web {obj!r} is not an object")
        verts, edges = obj.get("vertices", []), obj.get("edges", [])
        for field, value in (("vertices", verts), ("edges", edges)):
            if type(value) is not list:
                raise WebError(f"{field} {value!r} is not a list")
        ends = obj["boundary"]
        if type(ends) is not dict or not all(type(ends.get(side)) is str for side in ("top", "bot")):
            raise WebError(f"boundary {ends!r} is not an object of top and bot strings")
        return Web(ends["top"], ends["bot"], dict(map(vertex, verts)),
                   [edge(e) for e in edges], read(obj.get("loops", 0), "loops"))


def _join(top, bot, pieces, check=True) -> Web:
    """Glue ``pieces`` into one web with boundary ``top`` over ``bot``.

    A piece is ``(web, place)``: ``place(side, k)`` sends the web's top
    (``side == "t"``) or bottom (``"b"``) point k to ``("t", k')`` or
    ``("b", k')`` of the new boundary, or to ``(e, j)``, end e (0 or 1) of
    join j.  Each piece's vertex ids are shifted past the ids before it,
    edges keep the piece order, and the two strings of each join are spliced.
    """
    last = len(top) + len(bot) - 1  # bottom point k has circular index last - k
    verts, edges, partner, loops = {}, [], {}, 0
    for w, place in pieces:
        off, t, wlast = max(verts, default=-1) + 1, len(w.top), w.m - 1

        def mp(p):
            node, slot = p
            if slot != -1:
                return (node + off, slot) if off else p
            side, k = place("t", node) if node < t else place("b", wlast - node)
            if side == "t" or side == "b":
                return (k if side == "t" else last - k, -1)
            partner[q := ("J", side, k)] = ("J", 1 - side, k)
            return q

        verts.update({v + off: kind for v, kind in w.verts.items()} if off else w.verts)
        edges += [(mp(a), mp(b)) for a, b in w.edges]
        loops += w.loops
    edges, extra = _glue(edges, partner)
    return Web(top, bot, verts, edges, loops + extra, check=check)


def _shift(dt, db):
    """The place that moves top points ``dt`` and bottom points ``db`` right."""
    return lambda side, k: (side, k + (dt if side == "t" else db))


def _upper(side, k):  # the upper of two stacked webs: its bottom k is join k's end 0
    return (side, k) if side == "t" else (0, k)


def _lower(side, k):  # the lower one: its top k is join k's end 1
    return (1, k) if side == "t" else (side, k)


def _glue(edges, partner):
    """Splice edge chains across paired interface ports.

    Each interface port must occur exactly once as an edge endpoint, with
    paired ports playing opposite tail/head roles.  Chains closing on
    themselves become free loops.
    """
    tail_at = {}
    for i, (a, b) in enumerate(edges):
        if a in partner:
            tail_at[a] = i
    used = [False] * len(edges)
    out = []
    loops = 0
    for i, (a, b) in enumerate(edges):
        if used[i] or a in partner:
            continue
        used[i] = True
        head = b
        while head in partner:
            j = tail_at[partner[head]]
            used[j] = True
            head = edges[j][1]
        out.append((a, head))
    for i in range(len(edges)):
        if used[i]:
            continue
        loops += 1
        j = i
        while not used[j]:
            used[j] = True
            j = tail_at[partner[edges[j][1]]]
    return out, loops


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def through_strands(w: Web, i: int = 0, new: int = 0, old: int = 0) -> list:
    """Edges joining top point k to a bottom point, oriented by the top sign,
    for every k outside the ``new`` top points from i that a piece takes:
    bottom point k left of the piece and k - new + old right of it, where
    the piece takes ``old`` bottom points."""
    edges = []
    for k, sign in enumerate(w.top):
        if not i <= k < i + new:
            t, b = w.top_port(k), w.bot_port(k if k < i else k - new + old)
            edges.append((t, b) if sign == "-" else (b, t))
    return edges


def strip_web(token, below: str) -> Web:
    """The web, built unchecked, of a cup, cap or fork strip on the word
    ``below`` (``oracle.read_strip``): through strands left to right, then
    the piece.  A fork is a sink (``FORK_IN*``) or a source.  A merging fork
    takes its upper strings at slots 1, 0 and the lower at 2; a splitting
    one the upper at 1 and the lower at 2, 0, and lists the through strand
    on its right last."""
    top, (i, old, new) = read_strip(token, below)
    w = Web(top, flip(below), check=False)
    i -= 1
    edges = through_strands(w, i, len(new), len(old))
    ti, tj, bi, bj = w.top_port(i), w.top_port(i + 1), w.bot_port(i), w.bot_port(i + 1)
    if not (old and new):  # a cup or a cap: one string, from its '-' end
        a, b = (ti, tj) if new else (bj, bi)
        edges.append((a, b) if (new or old)[0] == "-" else (b, a))
        return Web(w.top, w.bot, {}, edges, check=False)
    sink = token[0].startswith("FORK_IN")
    ends = ((ti, 1), (tj, 0), (bi, 2)) if len(new) == 2 else ((ti, 1), (bi, 2), (bj, 0))
    edges += [(p, (0, slot)) if sink else ((0, slot), p) for p, slot in ends]
    if len(old) == 2 and i + 1 < len(top):
        edges.append(edges.pop(i))
    return Web(w.top, w.bot, {0: "sink" if sink else "source"}, edges, check=False)


def strip_word_web(word) -> Web:
    """The web, built unchecked, of a top-to-bottom word of cup, cap and
    fork strips whose bottom strip sits on the empty word."""
    w = Web("", "", check=False)
    for token in reversed(word):  # stacked from the bottom up
        w = strip_web(token, w.top).compose(w, check=False)
    return w


def identity_web(sigma: str) -> Web:
    """Vertical strands: the identity on the sign string ``sigma``."""
    edges = through_strands(Web(sigma, flip(sigma), check=False))
    return Web(sigma, flip(sigma), {}, edges)


def _pair_web(sigma: str, i: int, like: bool, error: str, minus, plus=None) -> Web:
    """The endomorphism of ``sigma`` that is vertical strands except at
    i, i+1, whose signs must be equal if ``like`` (else ``WebError(error)``).
    ``minus(ti, tj, bi, bj)`` gives the piece's vertices and edges on the
    four ports for a '-' pair, ``plus`` for a '+' pair; without ``plus``
    that is the '-' piece with every edge reversed, sink and source swapped."""
    if (sigma[i] == sigma[i + 1]) != like:
        raise WebError(error)
    w = Web(sigma, flip(sigma), check=False)
    verts, edges = (plus if sigma[i] == "+" and plus else minus)(
        w.top_port(i), w.top_port(i + 1), w.bot_port(i), w.bot_port(i + 1))
    if sigma[i] == "+" and not plus:  # the '-' piece, reversed
        verts, edges = {v: _STAR_KIND[k] for v, k in verts.items()}, [(b, a) for a, b in edges]
    return Web(sigma, w.bot, verts, through_strands(w, i, 2, 2) + edges)


def cupcap_web(sigma: str, i: int) -> Web:
    """Cap the opposite-signed pair at positions i, i+1 and cup it back."""
    return _pair_web(sigma, i, False, "cup/cap needs opposite adjacent signs",
                     lambda ti, tj, bi, bj: ({}, [(ti, tj), (bj, bi)]))


def wgen_web(sigma: str, i: int) -> Web:
    """The trivalent pair joining the like-signed strands i, i+1: for '-', a
    sink below the top pair and a source above the bottom pair."""
    return _pair_web(sigma, i, True, "trivalent generator needs equal adjacent signs",
                     lambda ti, tj, bi, bj: ({0: "sink", 1: "source"}, [
                         (ti, (0, 1)), (tj, (0, 0)), ((1, 0), (0, 2)), ((1, 1), bi), ((1, 2), bj)]))


def crossing_web(sigma: str, i: int, positive: bool = True) -> Web:
    """Braid the like-signed strands i, i+1 (positive: slot-0 strand over).
    Downward strands take slots NW=0, SW=1, SE=2, NE=3; upward ones SE=0,
    NE=1, NW=2, SW=3."""
    verts = {0: "xpos" if positive else "xneg"}
    return _pair_web(
        sigma, i, True, "crossing needs equal adjacent signs",
        lambda ti, tj, bi, bj: (verts, [(ti, (0, 0)), (tj, (0, 3)), ((0, 1), bi), ((0, 2), bj)]),
        lambda ti, tj, bi, bj: (verts, [(bj, (0, 0)), (bi, (0, 3)), ((0, 1), tj), ((0, 2), ti)]))


def hexagon_web() -> Web:
    """The hexagonal web with boundary top '-+-', bottom '+-+'.

    Six trivalent vertices alternate around an internal hexagonal face; this
    is the one diagram on this boundary that is not a composition of cups,
    caps and the trivalent pair generators.  It is the strip word of
    ``oracle.HEXAGON_WORD`` with its last three points moved to the bottom.
    """
    w = strip_word_web(HEXAGON_WORD)
    return Web("-+-", "+-+", w.verts, w.edges)
