import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar.scalar import Cyclo, CycloField, Laurent, alpha, cyclotomic, delta, qint


def laurents(max_terms=4, max_exp=6, max_num=8):
    coeff = st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=4
    )
    pair = st.tuples(st.integers(-max_exp, max_exp), coeff)
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: sum((Laurent.t(e, c) for e, c in ps), Laurent.zero())
    )


class TestLaurent:
    def test_quantum_integers(self):
        assert qint(0).is_zero()
        assert qint(1) == 1
        assert alpha() == delta() ** 2 - 1
        # recursion [m+1] = [2][m] - [m-1]
        for m in range(1, 8):
            assert qint(m + 1) == delta() * qint(m) - qint(m - 1)

    def test_bar_involution(self):
        x = Laurent.t(3) + Laurent.t(-1, Fraction(1, 2))
        assert x.conjugate().conjugate() == x
        assert qint(5).conjugate() == qint(5)

    def test_monomial_negative_powers(self):
        assert Laurent.t(2) ** -3 == Laurent.t(-6)
        with pytest.raises(ValueError):
            (delta() ** -1)

    def test_json_round_trip(self):
        x = Laurent.t(-4, Fraction(3, 7)) + 2
        assert Laurent.from_json(x.to_json()) == x

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + Laurent.zero() == a
        assert a * Laurent.one() == a

    @given(laurents(), laurents())
    @settings(max_examples=40, deadline=None)
    def test_bar_is_ring_hom(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


class TestCyclo:
    def test_delta_at_root(self):
        # [2] at q = e^{i pi/6} is 2 cos(pi/6) = sqrt(3)
        v = delta().eval_at_root(6)
        assert v * v == 3
        assert abs(v.to_complex() - 3**0.5) < 1e-12

    def test_qint_vanishing(self):
        for n in (4, 5, 6, 7):
            assert qint(n).eval_at_root(n).is_zero()
            for m in range(1, n):
                assert not qint(m).eval_at_root(n).is_zero()

    def test_field_inverse(self):
        for n in (5, 7):
            x = (alpha() + Laurent.t(2)).eval_at_root(n)
            assert x * x.inv() == 1
        with pytest.raises(ZeroDivisionError):
            CycloField.get(5).zero().inv()

    def test_conjugation_matches_complex(self):
        x = (Laurent.t(4) + Laurent.t(-7, Fraction(2, 3))).eval_at_root(5)
        assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-12
        assert x.conjugate().conjugate() == x

    def test_json_round_trip(self):
        x = delta().eval_at_root(8)
        assert Cyclo.from_json(x.to_json()) == x

    @given(laurents(max_terms=3), laurents(max_terms=3), st.sampled_from([4, 5, 6]))
    @settings(max_examples=30, deadline=None)
    def test_eval_is_ring_hom(self, a, b, n):
        assert (a * b).eval_at_root(n) == a.eval_at_root(n) * b.eval_at_root(n)
        assert (a + b).eval_at_root(n) == a.eval_at_root(n) + b.eval_at_root(n)

    @given(laurents(max_terms=3), st.sampled_from([4, 5, 6, 7]))
    @settings(max_examples=30, deadline=None)
    def test_complex_embedding_agrees(self, a, n):
        assert abs(a.eval_at_root(n).to_complex() - a.complex_at(n)) < 1e-9


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", range(4, 61))
def test_cyclotomic_6n(n):
    """prod over d | N of Phi_d is x^N - 1, deg Phi_N is the totient of N,
    and the primitive N-th root of unity is a root of Phi_N."""
    big = 6 * n
    prod = [1]
    for d in range(1, big + 1):
        if big % d == 0:
            prod = _times(prod, cyclotomic(d))
    assert prod == [-1] + [0] * (big - 1) + [1]
    phi = cyclotomic(big)
    assert len(phi) - 1 == sum(1 for k in range(1, big + 1) if math.gcd(k, big) == 1)
    z = cmath.exp(2j * cmath.pi / big)
    assert abs(sum(c * z**k for k, c in enumerate(phi))) < 1e-6
