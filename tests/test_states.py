"""Gram matrices from basis-web state vectors, against the closed-web route."""

import itertools
import random

import pytest

from a2planar import states
from a2planar.oracle import walk_dim
from closed_gram import closed_gram


def words_with_basis(size: int) -> list:
    return [s for s in map("".join, itertools.product("-+", repeat=size)) if walk_dim(s)]


WORDS_TO_7 = [s for size in range(8) for s in words_with_basis(size)]
DIAGRAM_WORDS = ["----++++", "-+-+-+-+", "--+--+++", "-----++"]
SAMPLE_8 = sorted(random.Random(30).sample(words_with_basis(8), 12))


def same(value):
    return value


@pytest.mark.parametrize("sigma", WORDS_TO_7 + [s for s in DIAGRAM_WORDS + SAMPLE_8
                                                 if s not in WORDS_TO_7])
def test_gram_matches_closed_webs(sigma):
    assert states.gram_values(sigma, same) == closed_gram(sigma)


def test_vectors_lead_with_their_own_state_strings():
    """The certificate holds on every word of up to 8 signs: each vector's
    largest state string is its own dominant one, with coefficient 1."""
    for sigma in (s for size in range(9) for s in words_with_basis(size)):
        _, width, vecs, _ = states._certified_walks(sigma)
        assert len(vecs) == walk_dim(sigma)
        for st, vec in zip(states._dominant_states(sigma), vecs):
            assert max(vec) == st
            assert list(states._laurent(vec[st], width, 0).c.values()) == [1]


def test_flipped_fork_out_rule_fails_the_comparison(monkeypatch):
    flipped = {ab: -e for ab, e in states._FORK_OUT_RULE.items()}
    monkeypatch.setattr(states, "_FORK_OUT_RULE", flipped)
    for sigma in DIAGRAM_WORDS:
        assert states.gram_values(sigma, same) != closed_gram(sigma)


def test_shifted_fork_out_split_fails_the_bar_check(monkeypatch):
    """Entry (j, i) is copied from entry (i, j), which is right only if the
    bar fixes every value.  With one ``FORK_OUT_INV`` split's vector weight
    one slot off, it fixes some of them no longer, and ``gram_values`` must
    raise rather than mirror them."""
    moves = states._moves

    def shifted(width):
        out = moves(width)
        split = out["FORK_OUT_INV"][(0,)]
        mid, shift, coshift = split[0]
        split[0] = mid, shift + width, coshift
        return out

    monkeypatch.setattr(states, "_moves", shifted)
    for sigma in DIAGRAM_WORDS:
        with pytest.raises(ArithmeticError, match="the bar moves Gram entry"):
            states.gram_values(sigma, same)


def test_leading_coefficient_two_raises(monkeypatch):
    walks = states._walks

    def doubled(words, width):
        vecs, covecs = walks(words, width)
        vecs[-1][max(vecs[-1])] *= 2
        return vecs, covecs

    monkeypatch.setattr(states, "_walks", doubled)
    with pytest.raises(ArithmeticError, match="does not lead"):
        states.gram_values("--++", same)


def test_count_below_walk_dim_raises(monkeypatch):
    monkeypatch.setattr(states, "walk_dim", lambda s: walk_dim(s) + 1)
    with pytest.raises(ArithmeticError, match="not a basis"):
        states.quotient_dim("---+++", 5)
