"""The rewriting against the state tensor: an exact second route.

Every web is an invariant tensor (Kuperberg's A2 spider), and
``states._walks`` evaluates any strip word as one, unreduced words with
loops and closed components included.  So for a strip word w with top
boundary sigma and normal form sum_k c_k b_k, the vectors must agree
exactly, at generic q: vec(w) = sum_k c_k vec(b_k).  A word on the empty
boundary checks the closed-web value that ``trace`` uses, the entry at the
empty state string.
"""

import random

from a2planar import rewrite, scalar, states
from a2planar.oracle import read_strip
from a2planar.web import strip_word_web
from random_webs import random_strip_word

RNG = random.Random(1)
WORDS = [random_strip_word(RNG) for _ in range(300)]


def top_word(word) -> str:
    """The sign word on top of a strip word that sits on the empty word."""
    top = ""
    for token in reversed(word):
        top, _ = read_strip(token, top)
    return top


def tensor(packed: dict, width: int, word) -> dict:
    """A packed vector of ``word`` as state string -> ``Laurent``: slot 0
    of a word of k strips holds q^(-k)."""
    return {st: states._laurent(p, width, -len(word)) for st, p in packed.items()}


def mismatches(words) -> list:
    """The words whose vector is not that of their normal form."""
    bad = []
    for word in words:
        both = [word, *states.basis_words(top_word(word))]
        width = max(map(states._branching, both)).bit_length()  # each coefficient fits
        vec, *basis_vecs = [tensor(v, width, w) for v, w in zip(states._walks(both, width)[0], both)]
        index = {strip_word_web(b).canonical_key(): k for k, b in enumerate(both[1:])}
        want = {}
        for w, c in rewrite.normalize(strip_word_web(word)).items():
            for st, value in basis_vecs[index[w.canonical_key()]].items():
                want[st] = want.get(st, scalar.Laurent.zero()) + c * value
        if {st: v for st, v in want.items() if not v.is_zero()} != vec:
            bad.append(word)
    return bad


def test_normal_forms_have_the_tensor_of_their_word():
    assert mismatches(WORDS) == []
    assert any(not top_word(word) for word in WORDS)  # closed words are among them


def test_wrong_loop_value_fails_the_check(monkeypatch):
    """With a loop worth [2] in place of [3], the words whose rewriting
    removes a loop no longer match their tensor."""
    monkeypatch.setattr(rewrite, "alpha", scalar.delta)
    assert len(mismatches(WORDS)) == 96
