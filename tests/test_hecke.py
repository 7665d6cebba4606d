"""Generator words, exact decomposition, and the hexagonal element."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

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
from a2planar.rewrite import enumerate_basis
from a2planar.scalar import Laurent, alpha, delta
from a2planar.web import WebError, hexagon_web, identity_web, wgen_web

HERE = os.path.dirname(__file__)


def test_alt_word():
    assert alt_word(3) == "-+-"
    assert alt_word(4) == "-+-+"


def test_generator_word_arithmetic():
    a = GeneratorWord.letter(3, "w", 0)
    b = GeneratorWord.letter(3, "w", 1)
    assert a + b == b + a
    assert (a - a).terms == {}
    assert a.scale(2) == a + a
    w = a.concat(b)
    assert list(w.terms) == [(("w", 0), ("w", 1))]


def test_generator_word_json():
    w = GeneratorWord(3, {(("w", 0), ("w", 1)): Laurent.t(2), (): Laurent.one()})
    assert GeneratorWord.from_json(w.to_json()) == w


def test_evaluate_unit_and_letters():
    assert evaluate(GeneratorWord.unit(3)) == identity(3)
    assert evaluate(GeneratorWord.letter(3, "w", 1)) == wsum(3, 1)
    assert evaluate(GeneratorWord.letter(4, "f", 0)) == fsum(4, 0)


def test_evaluate_f_word_identity():
    # w_i w_{i+1} w_i - w_i equals the double element
    w0 = GeneratorWord.letter(3, "w", 0)
    w1 = GeneratorWord.letter(3, "w", 1)
    word = w0.concat(w1).concat(w0) - w0
    assert evaluate(word) == fsum(3, 0)


def test_evaluate_hexagon_letter():
    assert evaluate(GeneratorWord.letter(3, "f3", 1)) == WebSum.from_web(
        hexagon_web()
    )


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


def test_decompose_outside_span():
    # an unreduced web (a digon) is not a combination of reduced webs
    w = wgen_web("---", 0)
    digon = WebSum.from_web(w.compose(w, check=False))
    with pytest.raises(WebError, match="not in the span"):
        decompose(digon)


def test_decompose_word_length_bound():
    # on 4 strands the spanning words reach length 5
    x = mult(mult(wsum(4, 0), wsum(4, 1)), wsum(4, 2))
    with pytest.raises(WebError, match="did not span"):
        decompose(x, max_len=4)
    assert evaluate(decompose(x, max_len=5)) == x


def test_residue_refuses_denominator_divisible_by_p():
    assert hecke._residue(Laurent({1: Fraction(1, 2)})) == hecke._T0 * pow(2, -1, hecke._P) % hecke._P
    with pytest.raises(ZeroDivisionError):
        hecke._residue(Laurent({0: Fraction(1, hecke._P)}))


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


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_f13_relations(n):
    report = f13_relations(3, n)
    assert all(ok for _, ok in report)


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
