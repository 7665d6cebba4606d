import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar.oracle import flip
from a2planar.rewrite import enumerate_basis
from a2planar.web import (
    Web,
    WebError,
    crossing_web,
    cupcap_web,
    hexagon_web,
    identity_web,
    strip_web,
    wgen_web,
)
from random_webs import fitting_tokens, random_reducible_web

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


def _theta(pi, first=0):
    """A closed theta: a sink and a source, with an edge from source slot i
    to sink slot pi[i]."""
    sink, source = first, first + 1
    return {sink: "sink", source: "source"}, [((source, i), (sink, pi[i])) for i in range(3)]


@pytest.mark.parametrize("pi", list(itertools.permutations(range(3))))
@pytest.mark.parametrize("beside", ["alone", "planar theta", "strand"])
def test_closed_component_planarity(pi, beside):
    """A closed theta is planar exactly when the sink's rotation reverses
    the source's, that is when pi is a transposition, whatever lies
    beside it."""
    verts, edges = _theta(pi)
    top = bot = ""
    if beside == "planar theta":
        more_verts, more_edges = _theta((0, 2, 1), first=2)
        verts, edges = {**verts, **more_verts}, edges + more_edges
    elif beside == "strand":
        top, bot, edges = "-", "+", edges + [((0, -1), (1, -1))]
    if pi in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        with pytest.raises(WebError, match="not planar"):
            Web(top, bot, verts, edges)
    else:
        Web(top, bot, verts, edges)


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

    def test_more_strands_than_present(self):
        for close in (Web.close_right, Web.close_left):
            with pytest.raises(WebError, match="more strands than are present"):
                close(identity_web("-+"), 3)

    @pytest.mark.parametrize("count", [-1, -2])
    def test_negative_count(self, count):
        for close in (Web.close_right, Web.close_left):
            with pytest.raises(WebError, match="cannot close -"):
                close(identity_web("-+"), count)

    def test_inconsistent_orientations(self):
        # a cap over a cup: each top point meets a bottom point of its own sign
        w = Web("-+", "-+", {}, [((0, -1), (1, -1)), ((3, -1), (2, -1))])
        for close in (Web.close_right, Web.close_left):
            with pytest.raises(WebError, match="inconsistent orientations"):
                close(w, 1)


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


# -- strip webs -----------------------------------------------------------


def test_strip_web_of_every_fitting_token_is_valid():
    """Every token at every position where it fits a word of length <= 4."""
    built = 0
    for below in ("".join(s) for k in range(5) for s in itertools.product("-+", repeat=k)):
        for token in fitting_tokens(below, max_len=6):
            w = strip_web(token, below)
            w.validate()
            assert flip(w.bot) == below
            built += 1
    assert built == 424


def _stacked(word, below):
    w = identity_web(below)
    for token in reversed(word):
        w = strip_web(token, w.top).compose(w)
    return w


@pytest.mark.parametrize("sigma", ["-+", "+-", "--", "++", "-+--", "+-++"])
def test_strip_pairs_are_the_generators(sigma):
    """A cap over a cup is ``cupcap_web``, and a merging fork over a
    splitting one is ``wgen_web``, up to isotopy."""
    for i in range(len(sigma) - 1):
        if sigma[i] != sigma[i + 1]:
            word, want = [("CAP", i + 1, sigma[i]), ("CUP", i + 1)], cupcap_web(sigma, i)
        else:
            upper, lower = ("FORK_IN_INV", "FORK_OUT") if sigma[i] == "-" else ("FORK_OUT_INV", "FORK_IN")
            word, want = [(upper, i + 1), (lower, i + 1)], wgen_web(sigma, i)
        assert _stacked(word, sigma) == want


# -- gluing: compose, tensor and the closures ----------------------------


def _glue_outputs():
    """The outputs of the four gluing operations on seeded inputs.

    The inputs are ``random_reducible_web`` webs, the same webs with a
    crossing stacked below, and their tensor products; every closure count
    is taken from both sides.  The full closures leave free loops and
    closed components.  The basis webs of three words cover the growth
    route of ``enumerate_basis``, which composes its pieces.
    """
    rng = random.Random(18)
    out = {"compose": [], "tensor": [], "close_right": [], "close_left": [], "basis": []}
    for _ in range(80):
        a, b = random_reducible_web(rng), random_reducible_web(rng)
        like = [i for i in range(len(a.top) - 1) if a.top[i] == a.top[i + 1]]
        if like:
            x = crossing_web(a.top, rng.choice(like), rng.random() < 0.5)
            out["compose"].append(a.compose(x))
            a = out["compose"][-1]
        out["compose"].append(a.compose(a.star()))
        out["tensor"].append(a.tensor(b))
        for c in (a, out["compose"][-1], out["tensor"][-1]):
            for count in range(min(len(c.top), len(c.bot)) + 1):
                out["close_right"].append(c.close_right(count))
                out["close_left"].append(c.close_left(count))
    for sigma in ("-+-+-+", "---+++", "--+-++-+"):
        out["basis"] += enumerate_basis(sigma)
    return out


GLUE_DIGESTS = {
    "compose": "7b455003cee6c5d6d8304fe37de27f3bdab06f9d605d2b9a125ef71057ca9706",
    "tensor": "a76fea1ac650ed59217d3a687315bc3e278c46d4110ccea99a1b1739ae79931c",
    "close_right": "284c464aad5b699f1e327e9807324065101a40680c5aa1ac33913781e83331a1",
    "close_left": "4b80e762aae9e6c0c87adf45c7514a7bf03ffa96d23e62e332a111cb0e728576",
    "basis": "227d750975643ef4914d89ce5e98a9bff7bb4502491fe94f76d13ea6a1de5155",
}


def test_gluing_matches_recorded():
    """Vertex ids, edge order and loop counts of every gluing output match
    digests recorded before the four operations shared one routine."""
    out = _glue_outputs()
    closed = out["close_right"] + out["close_left"]
    assert any(w.loops for w in closed)
    assert any(w.m == 0 and w.verts for w in closed)
    digests = {
        op: hashlib.sha256(json.dumps([w.to_json() for w in ws]).encode()).hexdigest()
        for op, ws in out.items()
    }
    assert digests == GLUE_DIGESTS


def _generator_outputs():
    """The ``to_json`` of the identity on every sigma of length 2..6, and of
    the cup-cap, the trivalent pair and both crossings at every i; the
    ``WebError`` text where a builder refuses."""
    builders = (cupcap_web, wgen_web, crossing_web,
                lambda sigma, i: crossing_web(sigma, i, positive=False))
    out = []
    for k in range(2, 7):
        for sigma in map("".join, itertools.product("-+", repeat=k)):
            out.append(identity_web(sigma).to_json())
            for i, build in itertools.product(range(k - 1), builders):
                try:
                    out.append(build(sigma, i).to_json())
                except WebError as exc:
                    out.append(str(exc))
    return out


# sha256 of ``_generator_outputs()``; recorded at 7ca08d9
GENERATOR_DIGEST = "f20b38ab50c982a886ad4948ce8f9fdb1929858aeecb59c9bc828c98913f38b9"


def test_generators_match_recorded():
    """Vertex ids, edge order and refusals of the four generator builders
    match a digest recorded before they shared one two-strand builder."""
    out = _generator_outputs()
    assert len(out) == 2188
    assert {x for x in out if isinstance(x, str)} == {
        "cup/cap needs opposite adjacent signs",
        "trivalent generator needs equal adjacent signs",
        "crossing needs equal adjacent signs",
    }
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == GENERATOR_DIGEST


def _generator(sigma, i, kind):
    if sigma[i] != sigma[i + 1]:
        return cupcap_web(sigma, i)
    return (wgen_web(sigma, i), crossing_web(sigma, i, True), crossing_web(sigma, i, False))[kind]


@st.composite
def endo_webs(draw, sigma):
    """A product of up to three random generators on ``sigma``."""
    w = identity_web(sigma)
    steps = st.tuples(st.integers(0, len(sigma) - 2), st.integers(0, 2))
    for i, kind in draw(st.lists(steps, max_size=3)) if len(sigma) > 1 else ():
        w = w.compose(_generator(sigma, i, kind))
    return w


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_interchange_law(data):
    """(a tensor b)(c tensor d) = (ac) tensor (bd)."""
    s, t = (data.draw(st.text("+-", min_size=1, max_size=3)) for _ in range(2))
    a, c = data.draw(endo_webs(s)), data.draw(endo_webs(s))
    b, d = data.draw(endo_webs(t)), data.draw(endo_webs(t))
    assert a.tensor(b).compose(c.tensor(d)) == a.compose(c).tensor(b.compose(d))


CLOSED_KEY_WORDS = ("++----++", "+++--+--", "+-+-+-+-", "-----++", "--+-++-+")


def _closed_keys():
    """``repr`` of the canonical key of every closed web b_j* b_i (i <= j)
    of the basis of each word in ``CLOSED_KEY_WORDS``."""
    out = []
    for sigma in CLOSED_KEY_WORDS:
        basis = enumerate_basis(sigma)
        out += [repr(basis[j].star().compose(b).canonical_key())
                for i, b in enumerate(basis) for j in range(i, len(basis))]
    return out


# sha256 of ``_closed_keys()``; recorded at 884cf79
CLOSED_KEY_DIGEST = "1c0128f698492a5e8f200f6af2303df6b99d40737cee38c6bb98ded386c46940"


def test_closed_keys_match_recorded():
    """The canonical keys of the closed Gram webs, their closed components
    included, match a digest recorded before planarity and the key shared
    one search for closed components."""
    out = _closed_keys()
    assert len(out) == 1170
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == CLOSED_KEY_DIGEST
