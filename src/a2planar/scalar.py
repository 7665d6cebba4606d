"""Exact coefficient arithmetic.

Three scalar domains:

* :class:`Laurent` -- Laurent polynomials in ``t = q^(1/3)`` with rational
  coefficients.  This ring houses every coefficient produced by web
  normalization and crossing expansion (``q``, ``q^(1/3)``, ``q^(8/3)``,
  the quantum integers, ...).  The constructor stores a coefficient as
  an ``int`` when it is integral and as a ``Fraction`` only otherwise, so
  the integer spider and crossing rules stay in ``int`` arithmetic.  Both
  types carry ``numerator`` and ``denominator``, and an integral
  ``Fraction`` left by Fraction arithmetic compares, hashes and
  serializes like the ``int``.
* :class:`Cyclo` -- elements of the cyclotomic field Q(zeta) with
  ``zeta = e^(i*pi/3n)`` a primitive ``6n``-th root of unity, so that
  ``q = zeta^3 = e^(i*pi/n)`` and ``t = zeta`` exactly.  Used for the
  ``gram`` payload, the normalized pairing ``inner_product`` and the
  reference rank ``cyclo_rank``.
* :class:`RealCyclo` -- elements of the ring Z[x]/psi_n with
  ``x = q + q^(-1) = 2cos(pi/n)``, of degree phi(2n)/2 against phi(6n).
  Closed webs evaluate to integer polynomials in [2] and [3], which lie
  in it, so the Gram ranks are taken here, by ``real_cyclo_rank``: each
  Gram matrix is symmetric and positive semidefinite at x = 2cos(pi/n),
  so its elimination pivots on the diagonal and keeps one triangle.

Both root-of-unity domains reduce with one routine, ``_reduce``, which
takes the monic integer modulus (Phi_{6n} or psi_n): a Laurent polynomial
puts each t^e at e mod 6n (or rewrites q^k + q^(-k) in x) first, a
product or conjugate reduces its coefficient list.  ``RealCyclo.cross``,
the Bareiss update (p x - a y) // k, sums both products into one list
before its one reduction.

All values are immutable; operations are pure.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

__all__ = [
    "Laurent", "CycloField", "Cyclo", "RealCycloRing", "RealCyclo",
    "qint", "delta", "alpha", "cyclotomic", "collect", "real_cyclo_rank",
]


def _frac(x) -> int | Fraction:
    """``x`` as an exact rational: an ``int`` when it is integral, else a
    ``Fraction``."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


class Laurent:
    """Sparse Laurent polynomial in t = q^(1/3) over Q: ``c`` maps each
    exponent to a nonzero ``int`` or ``Fraction``."""

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
            raise ValueError(f"negative power {k} of a Laurent polynomial")
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

    def complex_at(self, n: int) -> complex:
        """Floating-point reference embedding t = e^(i*pi/3n)."""
        z = cmath.exp(1j * cmath.pi / (3 * n))
        return sum(float(v) * z**e for e, v in self.c.items()) if self.c else 0j

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {"laurent": {str(e): f"{v.numerator}/{v.denominator}" for e, v in sorted(self.c.items())}}

    @staticmethod
    def from_json(obj: dict) -> "Laurent":
        """The polynomial that ``to_json`` writes; ValueError unless ``obj``
        is {"laurent": {exponent: coefficient}}, each exponent an integer
        string and each coefficient an int or a fraction string."""
        if type(obj) is not dict or type(obj.get("laurent")) is not dict:
            raise ValueError(f"coeff {obj!r} has no laurent object")
        coeffs = {}
        for e, v in obj["laurent"].items():
            try:
                e = int(e)
            except ValueError:
                raise ValueError(f"laurent exponent {e!r} is not an integer") from None
            try:
                if type(v) not in (int, str):
                    raise TypeError
                coeffs[e] = Fraction(v)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(f"laurent coefficient {v!r} of t^{e} is not an int or a fraction") from None
        return Laurent(coeffs)

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


def collect(pairs) -> dict:
    """The (key, coefficient) pairs summed per key, in the order keys first
    appear; a key whose sum cancels is dropped, and goes last if it comes
    back.  The one term accumulator of web sums, words and ``normalize``."""
    out = {}
    for key, c in pairs:
        prev = out.get(key)
        tot = c if prev is None else prev + c
        if tot.is_zero():
            out.pop(key, None)
        else:
            out[key] = tot
    return out


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
    """The field Q(zeta) = Q[x]/Phi_{6n} with zeta a primitive 6n-th root
    of unity.

    Elements are coefficient tuples of length d = phi(6n) over the power
    basis 1, zeta, ..., zeta^(d-1): the remainder modulo the monic integer
    polynomial Phi_{6n}, which ``_reduce`` computes for every constructor
    and operation.  ``inv_alpha_power`` caches [3]^(-m) on the field.
    """

    _cache: dict[int, "CycloField"] = {}

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("root order n must be >= 4 (A^(n) undefined below 4)")
        self.n = n
        self.order = 6 * n
        phi = cyclotomic(self.order)
        self.d = len(phi) - 1
        self._phi_coeffs = phi
        # the nonzero coefficients of Phi below its leading 1
        self._phi_terms = [(i, c) for i, c in enumerate(phi[:-1]) if c]
        self._zeta_complex = cmath.exp(1j * cmath.pi / (3 * n))
        self._inv_alpha: dict[int, Cyclo] = {}

    @classmethod
    def get(cls, n: int) -> "CycloField":
        f = cls._cache.get(n)
        if f is None:
            f = cls._cache[n] = CycloField(n)
        return f

    # -- element constructors -----------------------------------------

    def from_laurent(self, x: Laurent) -> "Cyclo":
        p = [0] * self.order
        for e, coeff in x.c.items():
            p[e % self.order] += coeff
        return Cyclo(self, _reduce(p, self.d, self._phi_terms))

    def from_coeffs(self, coeffs) -> "Cyclo":
        return Cyclo(self, _reduce([_frac(c) for c in coeffs], self.d, self._phi_terms))

    def inv_alpha_power(self, m: int) -> "Cyclo":
        """[3]^(-m), inverted once per field and ``m``."""
        c = self._inv_alpha.get(m)
        if c is None:
            c = self._inv_alpha[m] = self.from_laurent(alpha() ** m).inv()
        return c


# Polynomials are coefficient lists, constant term first; the helpers
# below work over Z (int entries) and Q (Fraction entries) alike.


def _reduce(p, d: int, terms) -> tuple:
    """The remainder of the coefficient list ``p`` modulo a monic integer
    polynomial of degree ``d``, given by ``terms``, its nonzero (i, a_i)
    below the leading 1: from the top degree k >= d down, subtract
    p[k] x^(k-d) times the modulus.  A coefficient +-1 (every one of
    Phi_{6n} for n < 35) skips the product."""
    p = list(p) + [0] * (d - len(p))
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            for i, a in terms:
                if a == -1:
                    p[k - d + i] += c
                else:
                    p[k - d + i] -= c if a == 1 else c * a
    return tuple(p[:d])


def _inverse(a, modulus, terms) -> tuple:
    """The inverse of ``a`` modulo the irreducible monic ``modulus`` (whose
    ``terms`` are as in ``_reduce``), by extended Euclid in Q[x]."""
    r0, r1 = modulus, a
    s0, s1 = [0], [1]
    while any(r1):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 = gcd (a constant, since the modulus is irreducible and a != 0 mod it)
    if _poly_deg(r0) != 0:
        raise ZeroDivisionError("inverse of zero")
    inv_lead = Fraction(1) / r0[0]
    return _reduce([c * inv_lead for c in s0], len(modulus) - 1, terms)


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
            return self.field.from_coeffs([other])
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
        f = self.field
        return Cyclo(f, _reduce(_poly_mul(self.v, other.v), f.d, f._phi_terms))

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        f = self.field
        return Cyclo(f, _inverse(self.v, f._phi_coeffs, f._phi_terms))

    def is_zero(self) -> bool:
        return not any(self.v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return (self - self._check(other)).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.field.n, self.v))

    def conjugate(self) -> "Cyclo":
        """Complex conjugation: zeta^i -> zeta^((-i) mod 6n), exactly."""
        f = self.field
        p = [0] * f.order
        for i, c in enumerate(self.v):
            p[(-i) % f.order] += c
        return Cyclo(f, _reduce(p, f.d, f._phi_terms))

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

    def __repr__(self):
        return f"Cyclo(n={self.field.n}, {self.to_complex():.6g})"


# ---------------------------------------------------------------------------
# The ring Z[2cos(pi/n)] = Z[x]/psi_n
# ---------------------------------------------------------------------------


@functools.cache
def _chebyshev(k: int) -> tuple:
    """Integer coefficients of P_k, where q^k + q^(-k) = P_k(q + q^(-1)):
    P_0 = 2, P_1 = x and P_(k+1) = x P_k - P_(k-1)."""
    if k < 2:
        return ((2,), (0, 1))[k]
    a, b = _chebyshev(k - 1), _chebyshev(k - 2) + (0, 0)
    return tuple((a[i - 1] if i else 0) - b[i] for i in range(k + 1))


def _in_x(half: dict) -> list:
    """The coefficients in x = q + q^(-1) of c_0 + sum_(k>0) c_k (q^k + q^(-k)),
    given ``half`` = {k: c_k} over k >= 0."""
    out = [0] * (max(half, default=0) + 1)
    for k, c in half.items():
        for i, a in enumerate(_chebyshev(k) if k else (1,)):
            out[i] += c * a
    return out


class RealCycloRing:
    """The ring Z[x]/psi_n with x = q + q^(-1) = 2cos(pi/n).

    psi_n is the minimal polynomial of 2cos(pi/n): q^(-d/2) Phi_{2n}(q),
    with d = phi(2n), rewritten in x.  It is monic, integer and
    irreducible, of degree d/2.  Elements are integer coefficient tuples
    over 1, x, ..., x^(d/2 - 1), reduced by the same ``_reduce`` as
    ``CycloField``; since Z[x]/psi_n embeds in the field Q[x]/psi_n, an
    element is zero exactly when its coefficients are.

    Every closed web evaluates to an integer polynomial in [2] and [3],
    which lies in this ring.  ``from_laurent`` converts such a value and
    raises ArithmeticError on anything else.
    """

    _cache: dict[int, "RealCycloRing"] = {}

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("root order n must be >= 4 (A^(n) undefined below 4)")
        self.n = n
        phi = cyclotomic(2 * n)
        h = (len(phi) - 1) // 2
        self.psi = tuple(_in_x({k: phi[h + k] for k in range(h + 1)}))
        self.d = h
        self._psi_terms = [(i, c) for i, c in enumerate(self.psi[:-1]) if c]

    @classmethod
    def get(cls, n: int) -> "RealCycloRing":
        r = cls._cache.get(n)
        if r is None:
            r = cls._cache[n] = RealCycloRing(n)
        return r

    def from_laurent(self, x: Laurent) -> "RealCyclo":
        """The value of ``x`` at q = e^(i pi/n).  ArithmeticError unless
        ``x`` is a polynomial in q (every t-exponent a multiple of 3) with
        integer coefficients that is symmetric under q -> q^(-1)."""
        half = {}
        for e, v in x.c.items():
            k, r = divmod(e, 3)
            if r:
                raise ArithmeticError(f"t^{e} is not a power of q")
            if v.denominator != 1:
                raise ArithmeticError(f"coefficient {v} is not an integer")
            if x.c.get(-e) != v:
                raise ArithmeticError("not symmetric under q -> q^(-1)")
            if k >= 0:
                half[k] = v.numerator
        return RealCyclo(self, _reduce(_in_x(half), self.d, self._psi_terms))


class RealCyclo:
    """An element of Z[x]/psi_n, reduced mod psi_n."""

    __slots__ = ("ring", "v")

    def __init__(self, ring: RealCycloRing, v):
        self.ring = ring
        self.v = tuple(v)

    def _check(self, other) -> "RealCyclo":
        if not isinstance(other, RealCyclo) or other.ring.n != self.ring.n:
            raise TypeError("root order mismatch")
        return other

    def __sub__(self, other):
        other = self._check(other)
        return RealCyclo(self.ring, tuple(a - b for a, b in zip(self.v, other.v)))

    def __mul__(self, other):
        other = self._check(other)
        r = self.ring
        return RealCyclo(r, _reduce(_poly_mul(self.v, other.v), r.d, r._psi_terms))

    def __floordiv__(self, k: int) -> "RealCyclo":
        """Exact division by the integer ``k``; ArithmeticError unless ``k``
        divides every coefficient."""
        if any(c % k for c in self.v):
            raise ArithmeticError(f"{k} does not divide {self!r}")
        return RealCyclo(self.ring, tuple(c // k for c in self.v))

    def cross(self, x: "RealCyclo", a: "RealCyclo", y: "RealCyclo", k: int = 1) -> "RealCyclo":
        """(self * x - a * y) // k, the Bareiss update: both products summed
        into one coefficient list, one reduction mod psi_n and one exact
        division by the integer ``k``; ArithmeticError unless ``k`` divides
        every coefficient.  All four elements lie in the same ring; a zero x
        stays zero when a or y is zero."""
        if not any(x.v) and not (any(a.v) and any(y.v)):
            return x
        out = _poly_mul(self.v, x.v)
        yv = y.v
        for i, ai in enumerate(a.v):
            if ai:
                for j, yj in enumerate(yv):
                    out[i + j] -= ai * yj
        r = self.ring
        fused = RealCyclo(r, _reduce(out, r.d, r._psi_terms))
        return fused if k == 1 else fused // k

    def scaled_inverse(self) -> tuple["RealCyclo", int]:
        """(b, k) with b in Z[x]/psi_n, k a positive integer and self * b = k."""
        r = self.ring
        inv = _inverse(self.v, r.psi, r._psi_terms)
        k = math.lcm(*(c.denominator for c in inv))
        return RealCyclo(r, [int(c * k) for c in inv]), k

    def is_zero(self) -> bool:
        return not any(self.v)

    def __eq__(self, other):
        if not isinstance(other, RealCyclo):
            return NotImplemented
        return self.ring.n == other.ring.n and self.v == other.v

    def __repr__(self):
        return f"RealCyclo(n={self.ring.n}, {self.v})"


def real_cyclo_rank(rows) -> int:
    """Exact rank of a symmetric matrix A over Z[x]/psi_n that is positive
    semidefinite at x = 2cos(pi/n), as every Gram matrix here is, by
    fraction-free (Bareiss) elimination on diagonal pivots.

    A pivot p = a_pp turns each remaining a_ij, j >= i, into one
    ``RealCyclo.cross`` (p b a_ij - a_ip b a_pj) // k, mirrored to a_ji,
    where p' b = k for the previous pivot p' (b = k = 1 at first).  After
    the pivots S, this is det A_SS > 0 times the Schur complement of A_SS,
    which is positive semidefinite at x = 2cos(pi/n).  So a zero diagonal
    entry means a row that is zero at that x, hence exactly zero, since
    x -> 2cos(pi/n) is injective on Z[x]/psi_n; once no diagonal entry is
    nonzero, the rank is the number of pivots.  ArithmeticError if A is not
    symmetric, or if an entry is nonzero where no diagonal one is.
    """
    mat = [list(r) for r in rows]
    if any(len(r) != len(mat) or r[j] != mat[j][i] for i, r in enumerate(mat) for j in range(i + 1)):
        raise ArithmeticError("the matrix is not symmetric")
    rest, b, k = list(range(len(mat))), None, 1  # p' b = k for the previous pivot p'
    while (piv := next((i for i in rest if not mat[i][i].is_zero()), None)) is not None:
        rest.remove(piv)
        top = mat[piv]
        pb = top[piv] if b is None else top[piv] * b
        for at, i in enumerate(rest):
            row = mat[i]
            ab = row[piv] if b is None else row[piv] * b
            for j in rest[at:]:
                row[j] = mat[j][i] = pb.cross(row[j], ab, top[j], k)
        b, k = top[piv].scaled_inverse()
    if any(not mat[i][j].is_zero() for i in rest for j in rest):
        raise ArithmeticError("an entry is nonzero where no diagonal entry is")
    return len(mat) - len(rest)
