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

The rotation system determines an embedding; validation checks that each
connected component is planar (Euler characteristic 2, with virtual arcs
joining consecutive boundary points to close off the disk).
"""

from __future__ import annotations

__all__ = [
    "Web",
    "WebError",
    "flip",
    "identity_web",
    "cupcap_web",
    "wgen_web",
    "crossing_web",
    "hexagon_web",
]

_FLIP = str.maketrans("+-", "-+")

TRIVALENT = ("sink", "source")
CROSSINGS = ("xpos", "xneg")
_VALENCE = {"sink": 3, "source": 3, "xpos": 4, "xneg": 4}
_STAR_KIND = {"sink": "source", "source": "sink", "xpos": "xneg", "xneg": "xpos"}
# slot relabeling under vertical reflection + orientation reversal
_STAR_SLOT3 = {0: 0, 1: 2, 2: 1}
_STAR_SLOT4 = {0: 1, 1: 0, 2: 3, 3: 2}


def flip(signs: str) -> str:
    """Negate every boundary sign."""
    return signs.translate(_FLIP)


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

    def n_vertices(self) -> int:
        return len(self.verts)

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
        all_edges, n_real, faces = self.embedding()
        # connected components over nodes
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        def node_of(p):
            return ("b", p[0]) if p[1] == -1 else p[0]

        for v in self.verts:
            parent.setdefault(v, v)
        for k in range(self.m):
            parent.setdefault(("b", k), ("b", k))
        for a, b in all_edges:
            union(node_of(a), node_of(b))
        comp_v: dict = {}
        for x in parent:
            comp_v.setdefault(find(x), [0, 0, 0])[0] += 1
        for a, b in all_edges:
            comp_v[find(node_of(a))][1] += 1
        for face in faces:
            i, _ = face[0]
            comp_v[find(node_of(all_edges[i][0]))][2] += 1
        for root, (v, e, f) in comp_v.items():
            if v - e + f != 2:
                raise WebError(f"component at {root} is not planar (V-E+F={v - e + f})")

    # -- canonical form -----------------------------------------------

    def canonical_key(self):
        """Hashable key equal for planar-isotopic webs, distinct otherwise.

        Deterministic traversal anchored at the boundary; internal vertex
        slots are read relative to the arrival slot, so the key depends only
        on the cyclic rotation data.
        """
        if self._key is not None:
            return self._key
        adj = {}
        for a, b in self.edges:
            adj[a] = (b, 1)
            adj[b] = (a, 0)

        def component_code(seed_ports):
            newid = {}
            arrival = {}
            order = []
            code = []

            def enc(p):
                node, slot = p
                if slot == -1:
                    return ("b", node)
                if node not in newid:
                    newid[node] = len(newid)
                    arrival[node] = slot
                    order.append(node)
                    return ("n", newid[node], self.verts[node])
                rel = (slot - arrival[node]) % self.valence(node)
                return ("o", newid[node], rel)

            for p in seed_ports:
                other, d = adj[p]
                code.append((d, enc(other)))
            i = 0
            while i < len(order):
                v = order[i]
                i += 1
                a0 = arrival[v]
                val = self.valence(v)
                for off in range(val):
                    other, d = adj[(v, (a0 + off) % val)]
                    code.append((d, enc(other)))
            return tuple(code), set(order)

        code, visited = component_code([(k, -1) for k in range(self.m) if (k, -1) in adj])
        rest = set(self.verts) - visited
        comp_codes = []
        while rest:
            v0 = next(iter(rest))
            best = None
            best_set = None
            # canonical root of a closed component: minimum over root darts
            stack = [v0]
            comp = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                for s in range(self.valence(v)):
                    other, _ = adj[(v, s)]
                    if other[1] != -1:
                        stack.append(other[0])
            for v in sorted(comp):
                for s in range(self.valence(v)):
                    c, vs = component_code([(v, s)])
                    c = (self.verts[v], s * 0, c)
                    if best is None or c < best:
                        best, best_set = c, vs
            comp_codes.append(best)
            rest -= comp
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

    def _renumbered(self, offset: int):
        verts = {v + offset: k for v, k in self.verts.items()}

        def mp(p):
            node, slot = p
            return p if slot == -1 else (node + offset, slot)

        edges = [(mp(a), mp(b)) for a, b in self.edges]
        return verts, edges

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
        t1, b1 = len(self.top), len(self.bot)
        t2, b2 = len(other.top), len(other.bot)
        top = self.top + other.top
        bot = self.bot + other.bot
        T, B = t1 + t2, b1 + b2
        overts, oedges = other._renumbered(self._vert_offset())

        def mp_self(p):
            node, slot = p
            if slot != -1:
                return p
            if node < t1:
                return (node, -1)
            k = t1 + b1 - 1 - node  # bottom position in self
            return (T + (B - 1 - k), -1)

        def mp_other(p):
            node, slot = p
            if slot != -1:
                return p
            if node < t2:
                return (t1 + node, -1)
            k = t2 + b2 - 1 - node
            return (T + (B - 1 - (b1 + k)), -1)

        edges = [(mp_self(a), mp_self(b)) for a, b in self.edges]
        edges += [(mp_other(a), mp_other(b)) for a, b in oedges]
        verts = dict(self.verts)
        verts.update(overts)
        return Web(top, bot, verts, edges, self.loops + other.loops)

    def _vert_offset(self) -> int:
        return max(self.verts, default=-1) + 1

    def compose(self, other: "Web", check: bool = True) -> "Web":
        """Stack ``self`` on top of ``other``, gluing bottom to top."""
        if flip(self.bot) != other.top:
            raise WebError(
                f"cannot compose: bottom {self.bot!r} does not match top {other.top!r}"
            )
        t1, b1 = len(self.top), len(self.bot)
        t2, b2 = len(other.top), len(other.bot)
        overts, oedges = other._renumbered(self._vert_offset())
        T = t1

        def mp_self(p):
            node, slot = p
            if slot != -1:
                return p
            if node < t1:
                return (node, -1)
            k = t1 + b1 - 1 - node
            return ("I", "a", k)  # interface: my bottom position k

        def mp_other(p):
            node, slot = p
            if slot != -1:
                return p
            if node < t2:
                return ("I", "b", node)  # interface: other's top position k
            k = t2 + b2 - 1 - node
            return (T + (b2 - 1 - k), -1)

        edges = [(mp_self(a), mp_self(b)) for a, b in self.edges]
        edges += [(mp_other(a), mp_other(b)) for a, b in oedges]
        partner = {}
        for k in range(b1):
            partner[("I", "a", k)] = ("I", "b", k)
            partner[("I", "b", k)] = ("I", "a", k)
        new_edges, extra_loops = _glue(edges, partner)
        verts = dict(self.verts)
        verts.update(overts)
        verts, new_edges = _prune_isolated(verts, new_edges)
        return Web(
            self.top,
            other.bot,
            verts,
            new_edges,
            self.loops + other.loops + extra_loops,
            check=check,
        )

    def close_right(self, count: int | None = None) -> "Web":
        """Join the rightmost ``count`` top/bottom pairs by nested right arcs."""
        return self._close(count, right=True)

    def close_left(self, count: int | None = None) -> "Web":
        return self._close(count, right=False)

    def _close(self, count, right: bool) -> "Web":
        t1, b1 = len(self.top), len(self.bot)
        if count is None:
            count = min(t1, b1)
        if count > min(t1, b1):
            raise WebError("cannot close more strands than are present")
        if right:
            tops = range(t1 - count, t1)
            bots = range(b1 - count, b1)
            new_top, new_bot = self.top[: t1 - count], self.bot[: b1 - count]
        else:
            tops = range(count)
            bots = range(count)
            new_top, new_bot = self.top[count:], self.bot[count:]
        for kt, kb in zip(tops, bots):
            if self.top[kt] != flip(self.bot)[kb]:
                raise WebError("closure strands have inconsistent orientations")

        closing = {}
        for kt, kb in zip(tops, bots):
            closing[(kt, -1)] = ("I", "t", kt)
            closing[(t1 + b1 - 1 - kb, -1)] = ("I", "u", kb)
        T2, B2 = len(new_top), len(new_bot)

        def mp(p):
            node, slot = p
            if slot != -1:
                return p
            if p in closing:
                return closing[p]
            if node < t1:
                k = node if right else node - count
                return (k, -1)
            k = t1 + b1 - 1 - node
            k2 = k if right else k - count
            return (T2 + (B2 - 1 - k2), -1)

        edges = [(mp(a), mp(b)) for a, b in self.edges]
        partner = {}
        for kt, kb in zip(tops, bots):
            partner[("I", "t", kt)] = ("I", "u", kb)
            partner[("I", "u", kb)] = ("I", "t", kt)
        new_edges, extra = _glue(edges, partner)
        verts, new_edges = _prune_isolated(dict(self.verts), new_edges)
        return Web(new_top, new_bot, verts, new_edges, self.loops + extra)

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
        verts = {int(d["id"]): d["kind"] for d in obj.get("vertices", [])}
        edges = [
            ((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
            for a, b in obj.get("edges", [])
        ]
        return Web(
            obj["boundary"]["top"],
            obj["boundary"]["bot"],
            verts,
            edges,
            int(obj.get("loops", 0)),
        )


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


def _prune_isolated(verts, edges):
    """Drop vertices no edge mentions (cannot occur for valid webs, but keeps
    intermediate surgery honest)."""
    touched = set()
    for a, b in edges:
        for node, slot in (a, b):
            if slot != -1:
                touched.add(node)
    return {v: k for v, k in verts.items() if v in touched}, edges


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def through_strands(w: Web, i: int | None = None, shift: int = 0) -> list:
    """Edges joining top point k to bottom point k' for every k outside the
    pair (i, i+1), oriented by the top sign: k' = k left of the pair and
    k - ``shift`` right of it.  ``i=None`` joins every top point."""
    edges = []
    for k, sign in enumerate(w.top):
        if i is not None and k in (i, i + 1):
            continue
        kb = k - shift if i is not None and k > i else k
        t, b = w.top_port(k), w.bot_port(kb)
        edges.append((t, b) if sign == "-" else (b, t))
    return edges


def identity_web(sigma: str) -> Web:
    """Vertical strands: the identity on the sign string ``sigma``."""
    edges = through_strands(Web(sigma, flip(sigma), check=False))
    return Web(sigma, flip(sigma), {}, edges)


def cupcap_web(sigma: str, i: int) -> Web:
    """Cap the opposite-signed pair at positions i, i+1 and cup it back."""
    if sigma[i] == sigma[i + 1]:
        raise WebError("cup/cap needs opposite adjacent signs")
    w = Web(sigma, flip(sigma), check=False)
    edges = through_strands(w, i)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    bi, bj = w.bot_port(i), w.bot_port(i + 1)
    edges.append((ti, tj) if sigma[i] == "-" else (tj, ti))
    # bottom signs are flipped, so the cup runs opposite to the cap
    edges.append((bj, bi) if sigma[i] == "-" else (bi, bj))
    return Web(sigma, flip(sigma), {}, edges)


def wgen_web(sigma: str, i: int) -> Web:
    """The trivalent pair joining the like-signed strands i, i+1."""
    if sigma[i] != sigma[i + 1]:
        raise WebError("trivalent generator needs equal adjacent signs")
    w = Web(sigma, flip(sigma), check=False)
    edges = through_strands(w, i)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    bi, bj = w.bot_port(i), w.bot_port(i + 1)
    if sigma[i] == "-":
        # sink below the top pair, source above the bottom pair
        verts = {0: "sink", 1: "source"}
        edges += [
            (ti, (0, 1)),
            (tj, (0, 0)),
            ((1, 0), (0, 2)),
            ((1, 1), bi),
            ((1, 2), bj),
        ]
    else:
        verts = {0: "source", 1: "sink"}
        edges += [
            ((0, 1), ti),
            ((0, 0), tj),
            ((0, 2), (1, 0)),
            (bi, (1, 1)),
            (bj, (1, 2)),
        ]
    return Web(sigma, flip(sigma), verts, edges)


def crossing_web(sigma: str, i: int, positive: bool = True) -> Web:
    """Braid the like-signed strands i, i+1 (positive: slot-0 strand over)."""
    if sigma[i] != sigma[i + 1]:
        raise WebError("crossing needs equal adjacent signs")
    w = Web(sigma, flip(sigma), check=False)
    edges = through_strands(w, i)
    ti, tj = w.top_port(i), w.top_port(i + 1)
    bi, bj = w.bot_port(i), w.bot_port(i + 1)
    verts = {0: "xpos" if positive else "xneg"}
    if sigma[i] == "-":
        # both strands downward: slots NW=0, SW=1, SE=2, NE=3
        edges += [(ti, (0, 0)), (tj, (0, 3)), ((0, 1), bi), ((0, 2), bj)]
    else:
        # both strands upward: slots SE=0, NE=1, NW=2, SW=3
        edges += [(bj, (0, 0)), (bi, (0, 3)), ((0, 1), tj), ((0, 2), ti)]
    return Web(sigma, flip(sigma), verts, edges)


def hexagon_web() -> Web:
    """The hexagonal web with boundary top '-+-', bottom '+-+'.

    Six trivalent vertices alternate around an internal hexagonal face; this
    is the one diagram on this boundary that is not a composition of cups,
    caps and the trivalent pair generators.
    """
    top, bot = "-+-", "+-+"
    w = Web(top, bot, check=False)
    t = [w.top_port(k) for k in range(3)]
    b = [w.bot_port(k) for k in range(3)]
    verts = {1: "sink", 2: "source", 3: "sink", 4: "source", 5: "sink", 6: "source"}
    edges = [
        (t[0], (1, 1)),
        ((2, 1), t[1]),
        (t[2], (3, 0)),
        ((6, 2), b[2]),
        (b[1], (5, 2)),
        ((4, 2), b[0]),
        ((2, 2), (1, 0)),
        ((2, 0), (3, 1)),
        ((6, 0), (3, 2)),
        ((6, 1), (5, 0)),
        ((4, 0), (5, 1)),
        ((4, 1), (1, 2)),
    ]
    return Web(top, bot, verts, edges)
