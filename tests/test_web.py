import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar.oracle import flip
from a2planar.rewrite import enumerate_basis, random_reducible_web
from a2planar.web import (
    Web,
    WebError,
    crossing_web,
    cupcap_web,
    hexagon_web,
    identity_web,
    wgen_web,
)

signs = st.lists(st.sampled_from("+-"), min_size=1, max_size=5).map("".join)


def sample_webs():
    return [
        identity_web("-"),
        identity_web("-+"),
        identity_web("--+"),
        cupcap_web("-+", 0),
        cupcap_web("-+-", 1),
        wgen_web("--", 0),
        wgen_web("++", 0),
        wgen_web("--+", 0),
        crossing_web("--", 0, True),
        crossing_web("++", 0, False),
        hexagon_web(),
        wgen_web("--", 0).compose(wgen_web("--", 0)),
    ]


class TestValidation:
    def test_bad_signs(self):
        with pytest.raises(WebError):
            Web("-x", "")

    def test_port_reuse(self):
        with pytest.raises(WebError):
            Web("--", "", {}, [((0, -1), (1, -1)), ((0, -1), (1, -1))])

    def test_orientation_against_sign(self):
        # '-' boundary points must be tails
        with pytest.raises(WebError):
            Web("+-", "", {}, [((0, -1), (1, -1))])
        Web("-+", "", {}, [((0, -1), (1, -1))])  # fine

    def test_sink_cannot_emit(self):
        with pytest.raises(WebError):
            Web("+--", "", {0: "sink"}, [((0, 0), (0, -1)), ((1, -1), (0, 1)), ((2, -1), (0, 2))])

    def test_unused_port(self):
        with pytest.raises(WebError):
            Web("-", "", {0: "sink"}, [((0, -1), (0, 0))])

    def test_nonplanar_rejected(self):
        # two interleaved chords on four boundary points cannot be planar
        with pytest.raises(WebError):
            Web("--++", "", {}, [((0, -1), (2, -1)), ((1, -1), (3, -1))])
        # nested chords are fine
        Web("--++", "", {}, [((0, -1), (3, -1)), ((1, -1), (2, -1))])


class TestStar:
    def test_involution(self):
        for w in sample_webs():
            assert w.star().star() == w

    def test_self_adjoint_generators(self):
        assert wgen_web("--", 0).star() == wgen_web("--", 0)
        assert cupcap_web("-+", 0).star() == cupcap_web("-+", 0)

    def test_crossing_star_flips(self):
        xs = crossing_web("--", 0, True).star()
        assert list(xs.verts.values()) == ["xneg"]

    def test_antimultiplicative(self):
        a = wgen_web("--", 0)
        b = crossing_web("--", 0, True)
        assert a.compose(b).star() == b.star().compose(a.star())


class TestCompose:
    def test_identity_neutral(self):
        for w in sample_webs():
            i_top = identity_web(w.top)
            i_bot = identity_web(flip(w.bot))
            assert i_top.compose(w) == w
            assert w.compose(i_bot) == w

    def test_mismatch_raises(self):
        with pytest.raises(WebError):
            identity_web("-").compose(identity_web("+"))

    def test_cup_cap_zigzag(self):
        # bend a strand up and down: planar isotopy gives the identity back
        # zigzag built from a cap next to a strand, then a cup
        zig = Web(
            "-", "+-+",
            {},
            [((0, -1), (3, -1)), ((2, -1), (1, -1))],
        )
        zag = Web(
            "-+-", "+",
            {},
            [((0, -1), (1, -1)), ((2, -1), (3, -1))],
        )
        assert zig.compose(zag) == identity_web("-")

    def test_tensor_matches_padded_generator(self):
        w = identity_web("-").tensor(wgen_web("--", 0)).tensor(identity_web("-"))
        assert w == wgen_web("----", 1)

    def test_tensor_compose_interchange(self):
        a, b = wgen_web("--", 0), cupcap_web("-+", 0)
        lhs = a.tensor(b).compose(a.tensor(b))
        rhs = a.compose(a).tensor(b.compose(b))
        assert lhs == rhs


class TestClosure:
    def test_full_trace_of_identity(self):
        c = identity_web("-+-").close_right()
        assert (c.top, c.bot, c.loops, c.edges) == ("", "", 3, ())

    def test_partial_closure(self):
        w = wgen_web("--", 0).close_right(1)
        assert w.top == "-" and w.bot == "+"
        assert len(w.verts) == 2

    def test_left_and_right_closures_of_identity_agree(self):
        w = identity_web("-+")
        assert w.close_left() == w.close_right()

    def test_theta(self):
        th = wgen_web("--", 0).close_right()
        assert len(th.verts) == 2 and len(th.edges) == 3 and th.loops == 0


class TestEmbedding:
    def test_hexagon_internal_face(self):
        h = hexagon_web()
        edges, n_real, faces = h.embedding()
        internal = [f for f in faces if all(i < n_real for i, _ in f)]
        assert len(internal) == 1 and len(internal[0]) == 6

    def test_digon_face(self):
        ww = wgen_web("--", 0).compose(wgen_web("--", 0))
        edges, n_real, faces = ww.embedding()
        internal = [f for f in faces if all(i < n_real for i, _ in f)]
        assert len(internal) == 1 and len(internal[0]) == 2

    def test_dart_count(self):
        for w in sample_webs():
            edges, n_real, faces = w.embedding()
            assert sum(len(f) for f in faces) == 2 * len(edges)


class TestCanonical:
    def test_distinguishes(self):
        ws = sample_webs()
        keys = {w.canonical_key() for w in ws}
        assert len(keys) == len(ws)

    def test_vertex_relabeling_invariant(self):
        w = wgen_web("--", 0)
        relabeled = Web(
            w.top,
            w.bot,
            {v + 7: k for v, k in w.verts.items()},
            [
                tuple((n + 7, s) if s != -1 else (n, s) for n, s in e)
                for e in w.edges
            ],
        )
        assert relabeled == w

    def test_slot_rotation_invariant(self):
        # rotating the cyclic slot labels of a trivalent vertex is an isotopy
        w = wgen_web("--", 0)
        rot = {0: 1, 1: 2, 2: 0}

        def mp(p):
            n, s = p
            if s == -1 or n != 0:
                return p
            return (n, rot[s])

        w2 = Web(w.top, w.bot, w.verts, [(mp(a), mp(b)) for a, b in w.edges])
        assert w2 == w

    def test_closed_component_key(self):
        th = wgen_web("--", 0).close_right()
        th2 = Web(
            th.top, th.bot,
            {v + 3: k for v, k in th.verts.items()},
            [tuple((n + 3, s) for n, s in e) for e in th.edges],
        )
        assert th == th2


class TestJson:
    def test_round_trip(self):
        for w in sample_webs():
            assert Web.from_json(w.to_json()) == w

    @given(signs)
    @settings(max_examples=30, deadline=None)
    def test_identity_round_trip(self, sigma):
        w = identity_web(sigma)
        assert Web.from_json(w.to_json()) == w


# -- canonical keys against the exhaustive root search --------------------


def exhaustive_key(w: Web):
    """The canonical key with no pruning: a closed component's code is the
    minimum of ``(kind, code)`` over every root dart of the component."""
    adj = {}
    for a, b in w.edges:
        adj[a] = (b, 1)
        adj[b] = (a, 0)

    def component_code(seed_ports):
        newid, arrival, order, code = {}, {}, [], []

        def enc(p):
            node, slot = p
            if slot == -1:
                return ("b", node)
            if node not in newid:
                newid[node] = len(newid)
                arrival[node] = slot
                order.append(node)
                return ("n", newid[node], w.verts[node])
            return ("o", newid[node], (slot - arrival[node]) % w.valence(node))

        for p in seed_ports:
            other, d = adj[p]
            code.append((d, enc(other)))
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            a0, val = arrival[v], w.valence(v)
            for off in range(val):
                other, d = adj[(v, (a0 + off) % val)]
                code.append((d, enc(other)))
        return tuple(code), set(order)

    code, visited = component_code([(k, -1) for k in range(w.m) if (k, -1) in adj])
    rest = set(w.verts) - visited
    comp_codes = []
    while rest:
        stack, comp = [next(iter(rest))], set()
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[(v, s)][0][0] for s in range(w.valence(v))
                             if adj[(v, s)][0][1] != -1)
        comp_codes.append(min(
            (w.verts[v], component_code([(v, s)])[0])
            for v in comp for s in range(w.valence(v))
        ))
        rest -= comp
    comp_codes.sort()
    return (w.top, w.bot, w.loops, code, tuple(comp_codes))


def _orbit(word: str) -> list:
    """Every rotation of ``word``, of its reversal and of their sign flips."""
    out = set()
    for x in (word, word[::-1], flip(word), flip(word)[::-1]):
        out.update(x[k:] + x[:k] for k in range(len(x)))
    return sorted(out)


DIAGRAM_WORDS = ("----++++", "-+-+-+-+", "--+--+++", "-----++")


@pytest.mark.parametrize("sigma", [*DIAGRAM_WORDS, *_orbit("--+-++-+"), "-+-+-+-+-+"])
def test_canonical_key_matches_exhaustive_search(sigma):
    """Byte-identical keys on every basis web of ``sigma`` and every closed
    web b_j* b_i (i <= j) of its Gram matrix."""
    basis = enumerate_basis(sigma)
    stars = [b.star() for b in basis]
    closed = [stars[j].compose(b, check=False)
              for i, b in enumerate(basis) for j in range(i, len(basis))]
    for w in basis + closed:
        assert repr(w.canonical_key()) == repr(exhaustive_key(w))


def test_canonical_key_matches_exhaustive_search_on_random_webs():
    rng = random.Random(2024)
    for _ in range(500):
        w = random_reducible_web(rng)
        for x in (w, w.close_right()):
            assert repr(x.canonical_key()) == repr(exhaustive_key(x))
