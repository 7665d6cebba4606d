import cmath
import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar.scalar import (
    CycloField,
    Laurent,
    RealCyclo,
    RealCycloRing,
    _poly_divmod,
    _poly_mul,
    alpha,
    collect,
    cyclotomic,
    delta,
    qint,
)


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

    def test_negative_powers_are_refused(self):
        for x in (Laurent.t(2), delta()):
            with pytest.raises(ValueError, match="negative power"):
                x ** -1

    def test_json_round_trip(self):
        x = Laurent.t(-4, Fraction(3, 7)) + 2
        assert Laurent.from_json(x.to_json()) == x

    def test_collect(self):
        """Sums per key, in first-seen order; a cancelled key is dropped, and
        one that comes back goes last."""
        one, two = Laurent.one(), Laurent({0: 2})
        pairs = [("a", one), ("b", -one), ("c", two), ("a", -one), ("b", one),
                 ("d", Laurent.zero()), ("c", one), ("a", two)]
        got = collect(pairs)
        assert got == {"c": Laurent({0: 3}), "a": two}
        assert list(got) == ["c", "a"]
        assert collect([]) == {}

    def test_json_keeps_integral_coefficients_integer(self):
        doc = {"laurent": {"-1": "1/2", "2": "3/1"}}
        x = Laurent.from_json(doc)
        assert x.to_json() == doc
        assert x.c == {-1: Fraction(1, 2), 2: 3} and type(x.c[2]) is int

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


def _remainder(poly, n) -> tuple:
    """``poly`` modulo Phi_6n by long division, padded to the field degree."""
    phi = cyclotomic(6 * n)
    d = len(phi) - 1
    _, r = _poly_divmod(poly, phi)
    assert not any(r[d:])
    return tuple(r[:d]) + (0,) * (d - len(r))


def _poly(x: Laurent, n) -> list:
    """A coefficient list equal to ``x`` at t = zeta_6n: every exponent is
    raised by the same multiple of 6n, which zeta^(6n) = 1 allows."""
    shift = 6 * n * max(0, -(min(x.c, default=0) // (6 * n)))
    p = [0] * (max(x.c, default=0) + shift + 1)
    for e, c in x.c.items():
        p[e + shift] = c
    return p


class TestReduction:
    """Every Cyclo constructor and operation against long division by
    Phi_6n, on polynomials up to three times the order long."""

    def test_monomials(self):
        for n in range(4, 13):
            f = CycloField.get(n)
            for k in range(-6 * n, 12 * n + 1):
                assert f.from_laurent(Laurent.t(k)).v == _remainder(_poly(Laurent.t(k), n), n)

    def test_products_conjugates_inverses(self):
        rng = random.Random(7)
        for n in range(4, 13):
            f = CycloField.get(n)
            for _ in range(6):
                a, b = (
                    Laurent({
                        rng.randrange(-6 * n, 6 * n):
                            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                        for _ in range(4)
                    })
                    for _ in range(2)
                )
                x, y = f.from_laurent(a), f.from_laurent(b)
                assert x.v == _remainder(_poly(a, n), n)
                assert (x * y).v == _remainder(_poly_mul(_poly(a, n), _poly(b, n)), n)
                assert x.conjugate().v == _remainder(_poly(a.conjugate(), n), n)
                if not x.is_zero():
                    assert (x * x.inv()).v == _remainder([1], n)


def _at_root(x: Laurent, n: int):
    """``x`` at t = zeta_6n = e^(i*pi/3n), exactly."""
    return CycloField.get(n).from_laurent(x)


class TestCyclo:
    def test_delta_at_root(self):
        # [2] at q = e^{i pi/6} is 2 cos(pi/6) = sqrt(3)
        v = _at_root(delta(), 6)
        assert v * v == 3
        assert abs(v.to_complex() - 3**0.5) < 1e-12

    def test_qint_vanishing(self):
        for n in (4, 5, 6, 7):
            assert _at_root(qint(n), n).is_zero()
            for m in range(1, n):
                assert not _at_root(qint(m), n).is_zero()

    def test_field_inverse(self):
        for n in (5, 7):
            x = _at_root(alpha() + Laurent.t(2), n)
            assert x * x.inv() == 1
        with pytest.raises(ZeroDivisionError):
            CycloField.get(5).from_coeffs([0]).inv()

    def test_conjugation_matches_complex(self):
        x = _at_root(Laurent.t(4) + Laurent.t(-7, Fraction(2, 3)), 5)
        assert abs(x.conjugate().to_complex() - x.to_complex().conjugate()) < 1e-12
        assert x.conjugate().conjugate() == x

    @given(laurents(max_terms=3), laurents(max_terms=3), st.sampled_from([4, 5, 6]))
    @settings(max_examples=30, deadline=None)
    def test_eval_is_ring_hom(self, a, b, n):
        assert _at_root(a * b, n) == _at_root(a, n) * _at_root(b, n)
        assert _at_root(a + b, n) == _at_root(a, n) + _at_root(b, n)

    @given(laurents(max_terms=3), st.sampled_from([4, 5, 6, 7]))
    @settings(max_examples=30, deadline=None)
    def test_complex_embedding_agrees(self, a, n):
        assert abs(_at_root(a, n).to_complex() - a.complex_at(n)) < 1e-9


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


# -- the ring Z[2cos(pi/n)] -------------------------------------------------


@pytest.mark.parametrize("n", range(4, 41))
def test_real_cyclotomic_modulus(n):
    """psi_n is monic of degree phi(2n)/2, and 2cos(pi/n) lies within 1e-12
    of one of its roots: a Newton step from it, taken in 50 digits, is
    shorter than that."""
    psi = RealCycloRing.get(n).psi
    assert psi[-1] == 1
    assert len(psi) - 1 == sum(1 for k in range(1, 2 * n + 1) if math.gcd(k, 2 * n) == 1) // 2
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(2 * math.cos(math.pi / n))
        value = sum(c * x**i for i, c in enumerate(psi))
        slope = sum(i * c * x ** (i - 1) for i, c in enumerate(psi) if i)
        assert abs(value / slope) < decimal.Decimal("1e-12")


@pytest.mark.parametrize("x", [
    Laurent.t(1) + Laurent.t(-1),
    Laurent({0: Fraction(1, 2)}),
    Laurent.t(3) - Laurent.t(-3),
], ids=["t-exponent", "half", "q-minus-inverse"])
def test_real_from_laurent_rejects(x):
    with pytest.raises(ArithmeticError):
        RealCycloRing.get(7).from_laurent(x)


@pytest.mark.parametrize("n", [4, 5, 7, 8, 12])
def test_real_from_laurent_values(n):
    """On integer polynomials in [2] and [3], the conversion is a ring
    homomorphism, and its value at x = 2cos(pi/n) is the value at the root."""
    ring = RealCycloRing.get(n)
    x = 2 * math.cos(math.pi / n)
    rng = random.Random(n)
    for _ in range(10):
        a, b = (
            sum((delta() ** rng.randrange(4) * alpha() ** rng.randrange(3) * rng.randrange(-5, 6)
                 for _ in range(3)), Laurent.zero())
            for _ in range(2)
        )
        ra, rb = ring.from_laurent(a), ring.from_laurent(b)
        assert ring.from_laurent(a * b) == ra * rb
        assert ring.from_laurent(a - b) == ra - rb
        assert abs(sum(c * x**i for i, c in enumerate(ra.v)) - a.complex_at(n).real) < 1e-9
    assert ring.from_laurent(qint(n)).is_zero()


def test_real_scaled_inverse_and_exact_division():
    ring = RealCycloRing.get(7)
    two, three = (ring.from_laurent(Laurent({0: k})) for k in (2, 3))
    for x in (Laurent.one(), delta(), alpha() + 2, delta() ** 3 - 3 * alpha()):
        a = ring.from_laurent(x)
        b, k = a.scaled_inverse()
        assert k > 0 and a * b == ring.from_laurent(Laurent({0: k}))
        assert (a * three) // 3 == a
    assert ring.from_laurent(delta()).scaled_inverse()[1] == 1  # [2] = 2cos(pi/7) is a unit
    with pytest.raises(ArithmeticError):
        two // 3
    with pytest.raises(ZeroDivisionError):
        ring.from_laurent(Laurent.zero()).scaled_inverse()


@pytest.mark.parametrize("n", [5, 7, 9, 12])
def test_real_cross_is_the_two_product_update(n):
    """``p.cross(x, a, y, k)`` against (p x - a y) // k taken with two
    products, on seeded triples; with k dividing the update and without,
    and with a zero x, which stays zero when a or y is zero."""
    ring = RealCycloRing.get(n)
    rng = random.Random(n)

    def rand(bits):
        return RealCyclo(ring, [rng.randrange(-(1 << bits), 1 << bits) for _ in range(ring.d)])

    for _ in range(50):
        p, x, a, y = (rand(rng.choice((2, 40, 300))) for _ in range(4))
        assert p.cross(x, a, y) == p * x - a * y
        k = rng.randrange(2, 10**6)
        pk, ak = (RealCyclo(ring, [k * c for c in e.v]) for e in (p, a))
        assert pk.cross(x, ak, y, k) == (pk * x - ak * y) // k == p * x - a * y
    one, zero = ring.from_laurent(Laurent.one()), ring.from_laurent(Laurent.zero())
    with pytest.raises(ArithmeticError):
        one.cross(one, zero, one, 2)
    assert one.cross(zero, zero, one, 2) == one.cross(zero, one, zero, 2) == zero
    assert one.cross(zero, one, one) == zero - one
