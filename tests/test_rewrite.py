import hashlib
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar.oracle import walk_dim
from a2planar.rewrite import (
    STRATEGIES,
    enumerate_basis,
    find_redexes,
    is_reduced,
    normalize,
)
from a2planar.scalar import Laurent, alpha, delta
from a2planar.web import (
    Web,
    WebError,
    crossing_web,
    cupcap_web,
    hexagon_web,
    identity_web,
    wgen_web,
)
from random_webs import random_reducible_web

EMPTY = Web("", "", {}, [], 0)
one = Laurent.one()


class TestLocalRules:
    def test_loop_value(self):
        assert normalize(Web("", "", {}, [], 2)) == {EMPTY: alpha() ** 2}

    def test_digon_value(self):
        w = wgen_web("--", 0)
        assert normalize(w.compose(w)) == {w: delta()}

    def test_theta_value(self):
        assert normalize(wgen_web("--", 0).close_right()) == {EMPTY: delta() * alpha()}

    def test_cupcap_loop(self):
        e = cupcap_web("-+", 0)
        assert normalize(e.compose(e)) == {e: alpha()}

    def test_square_sum(self):
        # stack the trivalent pair with itself shifted: gives one square redex
        # closing one strand of the trivalent pair creates a digon
        w = wgen_web("--", 0)
        assert normalize(w.close_right(1)) == {identity_web("-"): delta()}
        # a genuine square: W at position 0 then 1 then 0 again on 3 strands
        a = wgen_web("---", 0)
        b = wgen_web("---", 1)
        prod = a.compose(b).compose(a)
        reds = find_redexes(prod)
        assert any(r[0] == "square" for r in reds)
        res = normalize(prod)
        # reduced to a combination of basis webs with unit-ish coefficients
        assert all(is_reduced(x) for x in res)

    def test_hexagon_is_reduced(self):
        assert is_reduced(hexagon_web())

    def test_reduced_closed_web_is_scalar(self):
        # every nonempty closed crossing-free web reduces completely
        rng = random.Random(7)
        for _ in range(30):
            w = random_reducible_web(rng)
            closed = w.close_right()
            res = normalize(closed)
            assert set(res) <= {EMPTY}


class TestCrossings:
    def test_positive_kink(self):
        k = crossing_web("--", 0, True).close_right(1)
        assert normalize(k) == {identity_web("-"): Laurent.t(8)}

    def test_negative_kink(self):
        k = crossing_web("--", 0, False).close_right(1)
        assert normalize(k) == {identity_web("-"): Laurent.t(-8)}

    def test_reidemeister_2(self):
        p = crossing_web("--", 0, True)
        n = crossing_web("--", 0, False)
        assert normalize(p.compose(n)) == {identity_web("--"): one}
        assert normalize(n.compose(p)) == {identity_web("--"): one}

    def test_reidemeister_3(self):
        s1 = crossing_web("---", 0, True)
        s2 = crossing_web("---", 1, True)
        lhs = normalize(s1.compose(s2).compose(s1))
        rhs = normalize(s2.compose(s1).compose(s2))
        assert lhs == rhs

    def test_upward_crossings(self):
        p = crossing_web("++", 0, True)
        n = crossing_web("++", 0, False)
        assert normalize(p.compose(n)) == {identity_web("++"): one}

    def test_crossing_expansion_support(self):
        res = normalize(crossing_web("--", 0, True))
        assert res == {
            identity_web("--"): Laurent.t(2),
            wgen_web("--", 0): Laurent.t(-1, -1),
        }


class TestConfluence:
    def test_strategies_agree(self):
        rng = random.Random(12345)
        for _ in range(40):
            w = random_reducible_web(rng)
            results = []
            for strat in STRATEGIES:
                r = normalize(w, strategy=strat, rng=random.Random(99))
                results.append(r)
            for r in results[1:]:
                assert r == results[0]

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_confluence_property(self, seed):
        rng = random.Random(seed)
        w = random_reducible_web(rng)
        base = normalize(w, strategy="first")
        assert normalize(w, strategy="last") == base
        assert normalize(w, strategy="random", rng=rng) == base


class TestBasis:
    def test_counts_match_oracle_small(self):
        for m in (1, 2, 3, 4):
            sig = "-" * m + "+" * m
            assert len(enumerate_basis(sig)) == walk_dim(sig)

    def test_mixed_patterns(self):
        for sig in ("---", "-+-+", "--+-++", "+--+-+"):
            assert len(enumerate_basis(sig)) == walk_dim(sig)

    def test_webs_are_reduced_and_on_boundary(self):
        B = enumerate_basis("---+++")
        assert len(B) == 6
        for w in B:
            assert w.top == "---+++" and w.bot == ""
            assert is_reduced(w)
        assert len({w.canonical_key() for w in B}) == len(B)

    def test_hexagon_among_basis(self):
        # bend the hexagon web into all-on-top form: its boundary word
        # circularly is -+-+-+; the all-top basis on '-+-+-+' has 5 webs
        B = enumerate_basis("-+-+-+")
        assert len(B) == walk_dim("-+-+-+")
        assert any(len(w.verts) == 6 for w in B)

    def test_empty_and_impossible(self):
        assert enumerate_basis("") == [EMPTY]
        assert enumerate_basis("-") == []
        assert enumerate_basis("--") == []

    @staticmethod
    def _check_basis(sigma):
        B = enumerate_basis(sigma)
        assert len(B) == walk_dim(sigma)
        assert len({w.canonical_key() for w in B}) == len(B)
        for w in B:
            assert w.top == sigma and w.bot == ""
            assert is_reduced(w)
        return B

    def test_every_sign_string_up_to_length_8(self):
        for length in range(1, 9):
            for signs in itertools.product("-+", repeat=length):
                self._check_basis("".join(signs))

    def test_six_six(self):
        assert len(self._check_basis("-" * 6 + "+" * 6)) == 513

    def test_wrong_oracle_raises(self, monkeypatch):
        monkeypatch.setattr("a2planar.rewrite.walk_dim", lambda s: walk_dim(s) + 1)
        with pytest.raises(ArithmeticError):
            enumerate_basis("---+++")

    def test_invalid_piece_is_caught_by_certificate(self, monkeypatch):
        # the strips are built unchecked; a cap with its edge turned
        # against the boundary signs must still be refused
        from a2planar import web

        strip_web = web.strip_web

        def reversed_cap(token, below):
            w = strip_web(token, below)
            if token[0] != "CAP":
                return w
            (a, b) = w.edges[-1]
            return Web(w.top, w.bot, w.verts, w.edges[:-1] + ((b, a),), check=False)

        monkeypatch.setattr(web, "strip_web", reversed_cap)
        with pytest.raises(WebError):
            enumerate_basis("-+")

    def test_basis_matches_recorded(self):
        """The canonical key of every basis web and the digest of the
        words' ``to_json`` lists, recorded from the growth by attached
        pieces: every word of the diagram workload, the rotation orbit
        of '--+-++-+' and '-+-+-+-+-+'."""
        with open(os.path.join(os.path.dirname(__file__), "basis_recorded.json")) as fh:
            recorded = json.load(fh)
        for case in recorded:
            basis = enumerate_basis(case["sigma"])
            assert [repr(w.canonical_key()) for w in basis] == case["keys"]
            digest = hashlib.sha256(json.dumps([w.to_json() for w in basis]).encode())
            assert digest.hexdigest() == case["to_json_sha256"]


class TestLinearity:
    def test_normalize_merges_coefficients(self):
        w = wgen_web("--", 0)
        ww = w.compose(w)
        res = normalize({ww: one, w: one})
        assert res == {w: delta() + 1}

    def test_cancellation_drops_terms(self):
        w = wgen_web("--", 0)
        res = normalize([(w, one), (w, -one)])
        assert res == {}
