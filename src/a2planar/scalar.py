"""Exact coefficient arithmetic.

Two scalar domains:

* :class:`Laurent` -- Laurent polynomials in ``t = q^(1/3)`` with rational
  coefficients.  This ring houses every coefficient produced by web
  normalization and crossing expansion (``q``, ``q^(1/3)``, ``q^(8/3)``,
  the quantum integers, ...).
* :class:`Cyclo` -- elements of the cyclotomic field Q(zeta) with
  ``zeta = e^(i*pi/3n)`` a primitive ``6n``-th root of unity, so that
  ``q = zeta^3 = e^(i*pi/n)`` and ``t = zeta`` exactly.  Used for exact
  Gram ranks at roots of unity.

All values are immutable; operations are pure.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

__all__ = ["Laurent", "CycloField", "Cyclo", "qint", "delta", "alpha", "cyclotomic"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Laurent:
    """Sparse Laurent polynomial in t = q^(1/3) over Q."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
        self.c = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def t(e: int, coeff=1) -> "Laurent":
        """The monomial coeff * t^e (t = q^(1/3), so q^k is t(3*k))."""
        return Laurent({e: coeff})

    @staticmethod
    def q(e3: int, coeff=1) -> "Laurent":
        """coeff * q^e3 as a Laurent polynomial in t."""
        return Laurent({3 * e3: coeff})

    @staticmethod
    def from_int(k) -> "Laurent":
        return Laurent({0: k})

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "Laurent":
        other = _as_laurent(other)
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = Laurent()
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        out = Laurent()
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __sub__(self, other) -> "Laurent":
        return self + (-_as_laurent(other))

    def __rsub__(self, other) -> "Laurent":
        return _as_laurent(other) + (-self)

    def __mul__(self, other) -> "Laurent":
        other = _as_laurent(other)
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = Laurent()
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            if len(self.c) == 1:
                ((e, v),) = self.c.items()
                return Laurent({e * k: v**k})
            raise ValueError("negative powers only defined for monomials")
        acc = Laurent.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- predicates / comparisons -------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_laurent(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    # -- involution and evaluation ------------------------------------

    def conjugate(self) -> "Laurent":
        """The bar involution t -> t^(-1) (i.e. q -> q^(-1))."""
        out = Laurent()
        out.c = {-e: v for e, v in self.c.items()}
        return out

    def eval_at_root(self, n: int) -> "Cyclo":
        """Exact evaluation at t = zeta_{6n} = e^(i*pi/3n)."""
        return CycloField.get(n).from_laurent(self)

    def complex_at(self, n: int) -> complex:
        """Floating-point reference embedding t = e^(i*pi/3n)."""
        z = cmath.exp(1j * cmath.pi / (3 * n))
        return sum(float(v) * z**e for e, v in self.c.items()) if self.c else 0j

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"laurent": {str(e): f"{v.numerator}/{v.denominator}" for e, v in sorted(self.c.items())}}

    @staticmethod
    def from_json(obj: dict) -> "Laurent":
        return Laurent({int(e): Fraction(v) for e, v in obj["laurent"].items()})

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e, v in sorted(self.c.items()):
            if e == 0:
                parts.append(str(v))
            else:
                parts.append(f"{v}*t^{e}")
        return " + ".join(parts)


def _as_laurent(x) -> Laurent:
    if isinstance(x, Laurent):
        return x
    if isinstance(x, (int, Fraction)):
        return Laurent({0: x})
    raise TypeError(f"cannot coerce {x!r} to Laurent")


def qint(m: int) -> Laurent:
    """Quantum integer [m] = (q^m - q^-m)/(q - q^-1) = sum q^(m-1-2k)."""
    if m < 0:
        return -qint(-m)
    return Laurent({3 * (m - 1 - 2 * k): 1 for k in range(m)})


def delta() -> Laurent:
    return qint(2)


def alpha() -> Laurent:
    return qint(3)


# ---------------------------------------------------------------------------
# Cyclotomic field Q(zeta_{6n})
# ---------------------------------------------------------------------------


class CycloField:
    """The field Q(zeta) with zeta a primitive 6n-th root of unity.

    Elements are stored reduced modulo the 6n-th cyclotomic polynomial, as
    coefficient tuples of length phi(6n) over the power basis
    1, zeta, ..., zeta^(d-1).
    """

    _cache: dict[int, "CycloField"] = {}

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("root order n must be >= 4 (A^(n) undefined below 4)")
        self.n = n
        self.order = 6 * n
        coeffs = list(cyclotomic(self.order))
        # monic: coeffs[d] == 1
        self.d = len(coeffs) - 1
        self._phi_coeffs = coeffs
        # power table: zeta^k reduced, for k = 0 .. 6n-1
        d = self.d
        pows = []
        cur = [Fraction(0)] * d
        cur[0] = Fraction(1)
        for _ in range(self.order):
            pows.append(tuple(cur))
            # multiply by zeta
            lead = cur[d - 1]
            nxt = [Fraction(0)] + cur[: d - 1]
            if lead:
                for i in range(d):
                    nxt[i] -= lead * coeffs[i]
            cur = nxt
        self._pows = pows
        self._zeta_complex = cmath.exp(1j * cmath.pi / (3 * n))

    @classmethod
    def get(cls, n: int) -> "CycloField":
        f = cls._cache.get(n)
        if f is None:
            f = cls._cache[n] = CycloField(n)
        return f

    # -- element constructors -----------------------------------------

    def zero(self) -> "Cyclo":
        return Cyclo(self, (Fraction(0),) * self.d)

    def one(self) -> "Cyclo":
        v = [Fraction(0)] * self.d
        v[0] = Fraction(1)
        return Cyclo(self, tuple(v))

    def from_laurent(self, x: Laurent) -> "Cyclo":
        v = [Fraction(0)] * self.d
        for e, coeff in x.c.items():
            p = self._pows[e % self.order]
            for i in range(self.d):
                v[i] += coeff * p[i]
        return Cyclo(self, tuple(v))

    def from_coeffs(self, coeffs) -> "Cyclo":
        v = [Fraction(0)] * self.d
        for i, coeff in enumerate(coeffs):
            if i < self.d:
                v[i] = _frac(coeff)
            elif coeff:
                raise ValueError("coefficient vector longer than field degree")
        return Cyclo(self, tuple(v))

    # -- internal polynomial helpers ----------------------------------

    def _mul_vec(self, a, b):
        d = self.d
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        # reduce powers >= d using the power table
        v = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                p = self._pows[k % self.order]
                for i in range(d):
                    v[i] += c * p[i]
        return tuple(v)

    def _inv_vec(self, a):
        # extended Euclid in Q[x] against Phi_{6n}
        phi = [Fraction(c) for c in self._phi_coeffs]
        r0, r1 = phi, list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 = gcd (a constant, since Phi is irreducible and a != 0 mod Phi)
        deg = _poly_deg(r0)
        if deg != 0:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        inv_lead = Fraction(1) / r0[0]
        s0 = [c * inv_lead for c in s0]
        v = [Fraction(0)] * self.d
        for i, c in enumerate(s0):
            if i < self.d:
                v[i] += c
            elif c:
                p = self._pows[i % self.order]
                for j in range(self.d):
                    v[j] += c * p[j]
        return tuple(v)


# Polynomials are coefficient lists, constant term first; the helpers
# below work over Z (int entries) and Q (Fraction entries) alike.


@functools.cache
def cyclotomic(n: int) -> tuple:
    """Integer coefficients of Phi_n, constant term first:
    (x^n - 1) / prod of Phi_d over the proper divisors d of n."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_exquo(num, cyclotomic(d))
    return tuple(num)


def _poly_deg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_sub(a, b):
    m = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(m)]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod(a, b):
    a = list(a)
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError
    inv = Fraction(1) / b[db]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(_poly_deg(a), db - 1, -1):
        c = a[i] * inv
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return q, a


def _poly_exquo(a, b):
    """The quotient a / b of integer polynomials, without trailing zeros;
    ArithmeticError unless b divides a."""
    a = list(a)
    db = _poly_deg(b)
    lead = b[db]
    q = [0] * max(len(a) - db, 0)
    for i in range(_poly_deg(a), db - 1, -1):
        c, r = divmod(a[i], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    while q and not q[-1]:
        q.pop()
    return q


class Cyclo:
    """An element of Q(zeta_{6n}), reduced mod the cyclotomic polynomial."""

    __slots__ = ("field", "v")

    def __init__(self, field: CycloField, v):
        self.field = field
        self.v = tuple(v)

    def _check(self, other) -> "Cyclo":
        if isinstance(other, (int, Fraction)):
            w = [Fraction(0)] * self.field.d
            w[0] = _frac(other)
            return Cyclo(self.field, w)
        if not isinstance(other, Cyclo) or other.field.n != self.field.n:
            raise TypeError("cyclotomic order mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Cyclo(self.field, tuple(a + b for a, b in zip(self.v, other.v)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.field, tuple(-a for a in self.v))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        return Cyclo(self.field, self.field._mul_vec(self.v, other.v))

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        return Cyclo(self.field, self.field._inv_vec(self.v))

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def is_zero(self) -> bool:
        return not any(self.v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return (self - self._check(other)).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.field.n, self.v))

    def conjugate(self) -> "Cyclo":
        """Complex conjugation: zeta -> zeta^(-1), exactly."""
        f = self.field
        v = [Fraction(0)] * f.d
        for i, c in enumerate(self.v):
            if c:
                p = f._pows[(-i) % f.order]
                for j in range(f.d):
                    v[j] += c * p[j]
        return Cyclo(f, tuple(v))

    def to_complex(self) -> complex:
        z = self.field._zeta_complex
        acc = 0j
        for c in reversed(self.v):
            acc = acc * z + float(c)
        return acc

    def to_json(self) -> dict:
        return {
            "cyclo": {
                "n": self.field.n,
                "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.v],
            }
        }

    @staticmethod
    def from_json(obj: dict) -> "Cyclo":
        data = obj["cyclo"]
        return CycloField.get(int(data["n"])).from_coeffs([Fraction(c) for c in data["coeffs"]])

    def __repr__(self):
        return f"Cyclo(n={self.field.n}, {self.to_complex():.6g})"
