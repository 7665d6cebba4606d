"""Generator words, exact decomposition, and the hexagonal element."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from a2planar.algebra import WebSum, bend, fsum, identity, mult, wsum
from a2planar import hecke
from a2planar.hecke import (
    GeneratorWord,
    alt_word,
    cupcap_sum,
    decompose,
    evaluate,
    f13_relations,
    f13_sum,
)
from a2planar.oracle import walk_dim
from a2planar.rewrite import enumerate_basis
from a2planar.scalar import Laurent, alpha, delta
from a2planar.web import WebError, hexagon_web, wgen_web

HERE = os.path.dirname(__file__)


def test_alt_word():
    assert alt_word(3) == "-+-"
    assert alt_word(4) == "-+-+"


def test_generator_word_json():
    w = GeneratorWord(3, {(("w", 0), ("w", 1)): Laurent.t(2), (): Laurent.one()})
    assert GeneratorWord.from_json(w.to_json()) == w


def test_evaluate_unit_and_letters():
    assert evaluate(GeneratorWord(3, {(): 1})) == identity(3)
    assert evaluate(GeneratorWord(3, {(("w", 1),): 1})) == wsum(3, 1)
    assert evaluate(GeneratorWord(4, {(("f", 0),): 1})) == fsum(4, 0)


def test_evaluate_f_word_identity():
    # w_i w_{i+1} w_i - w_i equals the double element
    word = GeneratorWord(3, {(("w", 0), ("w", 1), ("w", 0)): 1, (("w", 0),): -1})
    assert evaluate(word) == fsum(3, 0)


def test_evaluate_hexagon_letter():
    """The hexagonal element is ``f13_sum``; ``evaluate`` knows only the
    letters w and f, and refuses any other kind."""
    assert f13_sum(3, 1) == WebSum.from_web(hexagon_web())
    for kind in ("f3", "fl"):
        with pytest.raises(WebError, match="unknown letter kind"):
            evaluate(GeneratorWord(3, {((kind, 1),): 1}))


# -- decomposition ---------------------------------------------------------


def test_decompose_generator():
    gw = decompose(wsum(3, 0))
    assert gw.terms == {(("w", 0),): Laurent.one()}


def test_decompose_double_element():
    gw = decompose(fsum(3, 0))
    assert evaluate(gw) == fsum(3, 0)
    assert gw.terms == {
        (("w", 0), ("w", 1), ("w", 0)): Laurent.one(),
        (("w", 0),): -Laurent.one(),
    }


def test_decompose_v3_basis_roundtrip():
    for b in enumerate_basis("---+++"):
        x = WebSum.from_web(bend(b, 3))
        assert evaluate(decompose(x)) == x


def test_decompose_random_words():
    rng = random.Random(11)
    for _ in range(5):
        x = identity(3)
        for _ in range(3):
            x = mult(x, wsum(3, rng.randrange(2)))
        assert evaluate(decompose(x)) == x


def test_decompose_matches_recorded_words():
    """The words recorded from the earlier solver, which zeroed the free
    parameters of an underdetermined solve over Q(t) (sympy, d558d52)."""
    with open(os.path.join(HERE, "decompose_recorded.json")) as fh:
        cases = json.load(fh)
    assert sum(GeneratorWord.from_json(c["input"]).m == 4 for c in cases) >= 2
    for case in cases:
        x = evaluate(GeneratorWord.from_json(case["input"]))
        assert decompose(x).to_json() == case["output"]


def test_decompose_five_strands_match_recorded():
    """Two seeded five-strand sums, recorded from the mod-p greedy search
    of 08b22be; their words of up to ten letters reach the 4321 pattern."""
    with open(os.path.join(HERE, "decompose_five_recorded.json")) as fh:
        cases = json.load(fh)
    assert [GeneratorWord.from_json(c["input"]).m for c in cases] == [5, 5]
    for case in cases:
        x = evaluate(GeneratorWord.from_json(case["input"]))
        assert decompose(x).to_json() == case["output"]


def test_decompose_six_strands_match_recorded():
    """Two six-strand sums, recorded from the Bareiss solve of f91d16b:
    the three-word sum of the CI job, one word the longest permutation's,
    and a seeded sum drawn as the decompose workload draws its sums."""
    with open(os.path.join(HERE, "decompose_six_recorded.json")) as fh:
        cases = json.load(fh)
    assert [GeneratorWord.from_json(c["input"]).m for c in cases] == [6, 6]
    for case in cases:
        x = evaluate(GeneratorWord.from_json(case["input"]))
        assert decompose(x).to_json() == case["output"]


# The generator words on m strands, recorded from the mod-p greedy search
# of 08b22be: the count, the longest word and the sha256 of the JSON list
# of each word's letter indices.
_WORDS_RECORDED = {
    2: (2, 1, "5fd6c8f1ce24dd8e3eecab4438bf164649b02def035ac20dfec349f1a3b8fc36"),
    3: (6, 3, "a817a585cb3350b73799c9b098b3490c8b5bc4d57a157b8b9ca223543ae26be3"),
    4: (23, 5, "21ec94f6a7722d465f5c25b8ceea213b0df57f9e87909eddf83cbb587496b9f0"),
    5: (103, 8, "55bb28d709043e2b283bc30b25034ccff7959dfd1b21ebc0e2d8f41399288184"),
    6: (513, 12, "0fbe9d0beb51cf1dc1bc4dcd82f02cddaa45a9b5894dd86f1915a4e364ce0558"),
}


@pytest.mark.parametrize("m", sorted(_WORDS_RECORDED))
def test_generator_words_match_recorded(m):
    words = [[i for _, i in word] for word, _ in hecke._basis_words(m)]
    digest = hashlib.sha256(json.dumps(words).encode()).hexdigest()
    assert (len(words), max(map(len, words)), digest) == _WORDS_RECORDED[m]


def test_decompose_normalizes_its_input():
    """An unreduced web, the digon W_0 W_0, is written in the generators
    through its normal form [2] W_0; it was refused as not in the span of
    the reduced webs while the input was matched without normalizing."""
    w = wgen_web("---", 0)
    digon = WebSum.from_web(w.compose(w, check=False))
    assert decompose(digon).terms == {(("w", 0),): delta()}


def test_decompose_word_length_bound():
    # on 4 strands the basis words reach length 5, one short of the
    # longest permutation 4321
    assert max(len(word) for word, _ in hecke._basis_words(4)) == 5
    x = mult(mult(wsum(4, 0), wsum(4, 1)), wsum(4, 2))
    assert evaluate(decompose(x)) == x


@pytest.mark.parametrize("m", range(9))
def test_basis_words_count_the_reduced_webs(m):
    words = hecke._basis_words(m)
    assert len(words) == walk_dim("-" * m + "+" * m)
    assert words[0] == ((), None)
    for word, parent in words[1:]:
        assert words[parent][0] == word[:-1]


def test_dependent_words_fail_the_lead_check(monkeypatch):
    """Positive control of the certificate: with the last word on 4
    strands swapped for a word of 4321, whose value is in the span of the
    others, there are still ``walk_dim`` words, but the last value adds no
    new web."""
    words = hecke._basis_words(4)
    w0 = tuple(("w", i) for i in (0, 1, 0, 2, 1, 0))
    parent = next(k for k, (word, _) in enumerate(words) if word == w0[:-1])
    monkeypatch.setattr(hecke, "_basis_words", lambda m: words[:-1] + [(w0, parent)])
    with pytest.raises(ArithmeticError, match="one new web with a unit coefficient"):
        decompose(wsum(4, 0))


def test_non_unit_leads_fail_the_lead_check(monkeypatch):
    """Positive control: with every W_i scaled by [2], each lead's
    coefficient is a power of [2], not a unit, and dividing by it would
    leave the Laurent polynomials."""
    plain = hecke.wsum
    monkeypatch.setattr(hecke, "wsum", lambda m, i: plain(m, i).scale(delta()))
    with pytest.raises(ArithmeticError, match="one new web with a unit coefficient"):
        decompose(plain(3, 0))


@pytest.mark.parametrize("m", range(2, 6))
def test_leads_are_the_reduced_webs(m):
    """The leads, one per word, are the bent reduced webs of the boundary
    -...-+...+, found by ``enumerate_basis``, each once."""
    leads = [lead.canonical_key() for *_, lead, _ in hecke._valued_words(m)]
    webs = [bend(b, m).canonical_key() for b in enumerate_basis("-" * m + "+" * m)]
    assert len(set(leads)) == len(leads) == len(webs)
    assert set(leads) == set(webs)


def test_import_leaves_sympy_out():
    code = "import sys, a2planar.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=_src()))
    assert out.stdout.strip() == "False"


def _src():
    import a2planar

    return os.path.dirname(os.path.dirname(a2planar.__file__))


# -- cup-cap elements ------------------------------------------------------


def test_cupcap_quadratic():
    for m, l in ((3, 1), (3, 2), (4, 2)):
        c = cupcap_sum(m, l)
        assert mult(c, c) == c.scale(alpha())


def test_cupcap_jones_relation():
    c1, c2 = cupcap_sum(3, 1), cupcap_sum(3, 2)
    assert mult(mult(c1, c2), c1) == c1
    assert mult(mult(c2, c1), c2) == c2


def test_cupcap_selfadjoint():
    for l in (1, 2):
        c = cupcap_sum(3, l)
        assert c.star() == c


def test_hexagon_selfadjoint():
    f3 = f13_sum(3, 1)
    assert f3.star() == f3


def test_index_guards():
    with pytest.raises(WebError):
        cupcap_sum(3, 0)
    with pytest.raises(WebError):
        cupcap_sum(3, 3)
    with pytest.raises(WebError):
        f13_sum(4, 2)
    with pytest.raises(WebError):
        f13_sum(3, 3)
    with pytest.raises(WebError):
        f13_relations(2)


# -- relation suite --------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 9])
def test_f13_relations(n):
    report = f13_relations(3, n)
    assert all(ok for _, ok in report)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_f13_relations_report(n):
    """The whole report, checks and outcomes, for the 3-strand hexagon."""
    want = [
        "(f1_3)^2 = [2] f1_3 + (c1 + c2) + (c1 c2 + c2 c1)",
        "c1 f1_3 = [2] c1 + [2] c1 c2",
        "c2 f1_3 = [2] c2 + [2] c2 c1",
        "c1 f1_3 c1 = [2]^3 c1",
        "f1_3 c1 f1_3 = [2]^2 (c1 + c2 + c1 c2 + c2 c1)",
        "c2 f1_3 c2 = [2]^3 c2",
        "f1_3 c2 f1_3 = [2]^2 (c1 + c2 + c1 c2 + c2 c1)",
        f"cup-cap subalgebra rank 5 at n={n}",
        f"rank with hexagonal element = {5 if n == 5 else 6} at n={n}",
    ]
    if n == 5:
        want.append("f1_3 = [3] - c1 - c2 + [3](c1 c2 + c2 c1) mod null at n=5")
    assert f13_relations(3, n) == [(name, True) for name in want]


def test_f13_relations_wider_strip():
    assert all(ok for _, ok in f13_relations(4, 7))


def test_f13_collapse_reported_only_at_5():
    ids5 = [name for name, _ in f13_relations(3, 5)]
    ids7 = [name for name, _ in f13_relations(3, 7)]
    assert any("mod null" in s for s in ids5)
    assert not any("mod null" in s for s in ids7)


def test_hexagon_outside_cupcap_span_generically():
    # rank jumps from 5 to 6 once the hexagonal element is added
    report = dict(f13_relations(3, 9))
    assert report["cup-cap subalgebra rank 5 at n=9"]
    assert report["rank with hexagonal element = 6 at n=9"]
