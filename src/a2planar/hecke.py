"""Generator-level view of the diagram algebras.

Two pictures are covered:

* the endomorphism algebra on ``m`` like-oriented strands, generated by
  the identity and the W_i (``decompose`` writes an arbitrary element as
  a linear combination of words in the W_i, certified by round-trip
  evaluation);
* the algebra on the alternating word ``-+-...``, where the cup-cap
  elements f_l play the role of Temperley-Lieb generators and the
  hexagonal element f1_3 (one internal six-sided face) extends them
  (``f13_relations`` checks its product relations exactly and locates it
  relative to the cup-cap subalgebra at a root of unity).

``decompose`` is exact linear algebra, not diagrammatic moves.  It keeps
the words in the W_i whose values raise the rank mod a prime p, until the
rank reaches ``oracle.walk_dim``, the number of reduced webs (Kuperberg:
non-elliptic webs are a basis); that certifies the words span, because
rank mod p <= rank over Q(t) <= ``walk_dim``.  It then solves the square
system over the reduced webs once, fraction-free over Z[t] (Bareiss), and
certifies the answer by evaluating the word back.
"""

from __future__ import annotations

import math

from .algebra import (
    WebSum,
    cyclo_rank,
    identity,
    mult,
    trace_right,
    wsum,
)
from .oracle import walk_dim

# enumerate_basis is unused here but stays importable from this module:
# perfbench/selftest.py checks that the tracer wraps it here too.
from .rewrite import enumerate_basis  # noqa: F401
from .scalar import (
    CycloField,
    Laurent,
    _poly_divmod,
    _poly_exquo,
    _poly_mul,
    _poly_sub,
    alpha,
    delta,
)
from .web import WebError, cupcap_web, flip, hexagon_web, identity_web

__all__ = [
    "GeneratorWord",
    "evaluate",
    "decompose",
    "alt_word",
    "cupcap_sum",
    "f13_sum",
    "f13_relations",
]


class GeneratorWord:
    """Formal linear combination of words in the strand generators.

    A word is a tuple of letters; a letter is ``("w", i)``, ``("f", i)``
    (the double element W_i W_{i+1} W_i - W_i), ``("fl", l)`` (cup-cap on
    the alternating word) or ``("f3", k)`` (hexagonal element).  The
    empty word is the identity.  Coefficients are Laurent scalars.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        tidy = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for word, c in items:
                word = tuple(tuple(l) for l in word)
                c = c if isinstance(c, Laurent) else Laurent.from_int(c)
                tot = tidy.get(word, Laurent.zero()) + c
                if tot.is_zero():
                    tidy.pop(word, None)
                else:
                    tidy[word] = tot
        self.terms = tidy

    @staticmethod
    def letter(m: int, kind: str, i: int) -> "GeneratorWord":
        return GeneratorWord(m, {((kind, i),): Laurent.one()})

    @staticmethod
    def unit(m: int) -> "GeneratorWord":
        return GeneratorWord(m, {(): Laurent.one()})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            tot = out.get(w, Laurent.zero()) + c
            if tot.is_zero():
                out.pop(w, None)
            else:
                out[w] = tot
        return GeneratorWord(self.m, out)

    def __neg__(self):
        return GeneratorWord(self.m, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k) -> "GeneratorWord":
        return GeneratorWord(self.m, {w: c * k for w, c in self.terms.items()})

    def concat(self, other) -> "GeneratorWord":
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                tot = out.get(w, Laurent.zero()) + ca * cb
                if tot.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = tot
        return GeneratorWord(self.m, out)

    def __eq__(self, other):
        if not isinstance(other, GeneratorWord):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __repr__(self):
        return f"GeneratorWord(m={self.m}, {len(self.terms)} terms)"

    def to_json(self):
        return {
            "m": self.m,
            "terms": [
                {"coeff": c.to_json(), "word": [list(l) for l in w]}
                for w, c in self.terms.items()
            ],
        }

    @staticmethod
    def from_json(obj) -> "GeneratorWord":
        return GeneratorWord(
            obj["m"],
            [
                (tuple(tuple(l) for l in t["word"]), Laurent.from_json(t["coeff"]))
                for t in obj["terms"]
            ],
        )


# -- letters as web sums ---------------------------------------------------


def alt_word(m: int) -> str:
    """The alternating boundary word -+-+... of length ``m``."""
    return ("-+" * m)[:m]


def cupcap_sum(m: int, l: int) -> WebSum:
    """Cup-cap element f_l (1-based) on the alternating word."""
    if not 1 <= l <= m - 1:
        raise WebError("cup-cap index out of range")
    return WebSum.from_web(cupcap_web(alt_word(m), l - 1))


def f13_sum(m: int = 3, k: int = 1) -> WebSum:
    """The hexagonal element f_k^(3) on the alternating word.

    Only odd 1-based positions are available (the hexagon needs the
    sub-word ``-+-``).
    """
    if k % 2 == 0:
        raise WebError("hexagonal element needs an odd start position")
    if not 1 <= k <= m - 2:
        raise WebError("hexagonal element out of range")
    s = alt_word(m)
    left = identity_web(s[: k - 1])
    right = identity_web(s[k + 2 :])
    w = left.tensor(hexagon_web()).tensor(right)
    return WebSum.from_web(w)


def _letter_sum(m: int, letter) -> WebSum:
    kind, i = letter
    if kind == "w":
        return wsum(m, i)
    if kind == "f":
        from .algebra import fsum

        return fsum(m, i)
    if kind == "fl":
        return cupcap_sum(m, i)
    if kind == "f3":
        return f13_sum(m, i)
    raise WebError(f"unknown letter kind {kind!r}")


def evaluate(word: GeneratorWord) -> WebSum:
    """Expand each letter to its diagram and multiply left to right."""
    m = word.m
    alternating = any(l[0] in ("fl", "f3") for w in word.terms for l in w)
    unit = (
        WebSum.from_web(identity_web(alt_word(m))) if alternating else identity(m)
    )
    total = WebSum.zero(unit.top, unit.bot)
    for w, c in word.terms.items():
        x = unit
        for letter in w:
            x = mult(x, _letter_sum(m, letter))
        total = total + x.scale(c)
    return total


# -- decomposition by exact linear solve -----------------------------------

# Word values are compared at t = _T0 in F_p, p = 2^61 - 1 (a prime).
_P = (1 << 61) - 1
_T0 = 0x2545F4914F6CDD1D % _P


def _residue(c: Laurent) -> int:
    """``c`` at t = _T0, mod p."""
    acc = 0
    for e, v in c.c.items():
        if v.denominator % _P == 0:
            raise ZeroDivisionError("coefficient denominator vanishes mod p")
        acc += v.numerator * pow(v.denominator, -1, _P) * pow(_T0, e, _P)
    return acc % _P


def _raises_rank(echelon: list, x: WebSum) -> bool:
    """Reduce ``x`` mod p by the echelon rows; if something is left, add
    it as a new row (pivot entry 1) and return True."""
    row = {w: _residue(c) for w, c in x.terms.items()}
    for pivot, prow in echelon:
        k = row.get(pivot)
        if k:
            for w, v in prow.items():
                row[w] = (row.get(w, 0) - k * v) % _P
    for pivot, k in row.items():
        if k:
            inv = pow(k, -1, _P)
            echelon.append((pivot, {w: v * inv % _P for w, v in row.items() if v}))
            return True
    return False


def _spanning_words(m: int, dim: int, max_len: int) -> list:
    """Words of length at most ``max_len`` that raise the rank mod p, with
    their values, in length-lexicographic order, until there are ``dim``."""
    gens = [wsum(m, i) for i in range(m - 1)]
    echelon: list = []
    kept: list = []
    level = [((), identity(m))]
    for _ in range(max_len + 1):
        parents = []
        for word, val in level:
            if _raises_rank(echelon, val):
                kept.append((word, val))
                parents.append((word, val))
                if len(kept) == dim:
                    return kept
        level = (
            (word + (("w", i),), mult(val, g))
            for word, val in parents
            for i, g in enumerate(gens)
        )
    raise WebError(f"generator words of length <= {max_len} did not span the algebra")


def _cleared(coeffs: list) -> list:
    """One equation's Laurent coefficients times the power of t and the
    integer that make all of them integer polynomials (constant first)."""
    terms = [(e, v) for c in coeffs for e, v in c.c.items()]
    lo = min((e for e, _ in terms), default=0)
    den = math.lcm(*(v.denominator for _, v in terms))
    out = []
    for c in coeffs:
        p = [0] * (max(c.c, default=lo - 1) - lo + 1)
        for e, v in c.c.items():
            p[e - lo] = v.numerator * (den // v.denominator)
        out.append(p)
    return out


def _bareiss(a: list) -> tuple:
    """Solve the nonsingular system given by the augmented rows [A | b]
    over Z[t] by fraction-free elimination.  Returns ``(y, det)`` with
    polynomials y_i, det such that A (y / det) = b."""
    n = len(a)
    prev = [1]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        ak = a[k]
        for ai in a[k + 1:]:
            for j in range(k + 1, n + 1):
                if ai[k] or ai[j]:
                    ai[j] = _poly_exquo(
                        _poly_sub(_poly_mul(ak[k], ai[j]), _poly_mul(ai[k], ak[j])), prev
                    )
            ai[k] = []
        prev = ak[k]
    y = [[]] * n
    for i in reversed(range(n)):
        acc = _poly_mul(prev, a[i][n])
        for j in range(i + 1, n):
            if a[i][j] and y[j]:
                acc = _poly_sub(acc, _poly_mul(a[i][j], y[j]))
        y[i] = _poly_exquo(acc, a[i][i])
    return y, prev


def _laurent_quotient(y: list, det: list) -> Laurent:
    """y / det as a Laurent polynomial, or WebError if it is not one."""
    s = next(e for e, c in enumerate(det) if c)
    q, r = _poly_divmod(y, det[s:])
    if any(r):
        raise WebError("coefficient is not a Laurent polynomial in t")
    return Laurent({e - s: c for e, c in enumerate(q)})


def decompose(x: WebSum, max_len: int = 8) -> GeneratorWord:
    """Write ``x`` as a word combination in the W_i, exactly.

    ``x`` must live on ``m`` strands oriented ``-`` at top and bottom,
    the boundary of ``identity(m)``.  Spanning words: words of length at
    most ``max_len`` are taken in length-lexicographic order, each valued
    with one multiplication from its parent, and kept when their value
    raises the rank mod p at a fixed point t0; only kept words are
    extended.  The search stops once the rank reaches ``walk_dim``, the
    number of reduced webs, which certifies that the words span.  These
    are the words a greedy pivot choice over Q(t) keeps, barring an
    evaluation point at which some rank drops.  Solve: the kept words give
    a square system over the reduced webs; each equation is cleared of
    its power of t and denominators, eliminated fraction-free over Z[t]
    and back-substituted.  Every coefficient must divide out to a
    Laurent polynomial, and the word is certified by evaluating it back.
    """
    m = len(x.top)
    unit = identity(m)
    if (x.top, x.bot) != (unit.top, unit.bot):
        raise WebError(
            f"decompose needs the boundary of identity({m}), {unit.top!r} over "
            f"{unit.bot!r}; got {x.top!r} over {x.bot!r}"
        )
    dim = walk_dim(x.top + flip(x.top)[::-1])
    kept = _spanning_words(m, dim, max_len)
    webs = dict.fromkeys(w for _, val in kept for w in val.terms)
    if any(w not in webs for w in x.terms):
        raise WebError("element is not in the span of the basis webs")
    if len(webs) != dim:
        raise ArithmeticError("spanning words do not live on the reduced webs")
    zero = Laurent.zero()
    rows = [
        _cleared([val.terms.get(w, zero) for _, val in kept] + [x.terms.get(w, zero)])
        for w in webs
    ]
    y, det = _bareiss(rows)
    out = GeneratorWord(
        m, [(word, _laurent_quotient(yi, det)) for (word, _), yi in zip(kept, y) if yi]
    )
    if evaluate(out) != x:
        raise ArithmeticError("round-trip check failed")
    return out


# -- hexagonal-element relation suite --------------------------------------


def f13_relations(m: int = 3, n: int = 7) -> list[tuple[str, bool]]:
    """Exact product relations of the hexagonal element, plus its rank
    position relative to the cup-cap subalgebra at the order-``n`` root.

    The cup-cap element ``c_l`` used here squares to ``[3] c_l``; the
    loop-free normalized generator is ``f_l = [3]^(-1) c_l``, which is not
    a Laurent scalar multiple, so each relation below is the f-form
    cleared of its ``[3]`` denominators.  In terms of ``f_l`` they read

        (f1_3)^2   = [2] f1_3 + [3](f_1 + f_2) + [3]^2 (f_1 f_2 + f_2 f_1)
        f_1 f1_3   = [2] f_1 + [2][3] f_1 f_2           (and 1 <-> 2)
        f_i f1_3 f_i = [2]^3 [3]^(-1) f_i
        f1_3 f_i f1_3 = [2]^2 (f_1 + f_2) + [2]^2 [3] (f_1 f_2 + f_2 f_1)
    """
    if m < 3:
        raise WebError("need at least three strands")
    d, a = delta(), alpha()
    f3 = f13_sum(m, 1)
    f1, f2 = cupcap_sum(m, 1), cupcap_sum(m, 2)
    one = WebSum.from_web(identity_web(alt_word(m)))
    f12, f21 = mult(f1, f2), mult(f2, f1)
    out = []
    out.append(
        (
            "(f1_3)^2 = [2] f1_3 + (c1 + c2) + (c1 c2 + c2 c1)",
            mult(f3, f3) == f3.scale(d) + (f1 + f2) + (f12 + f21),
        )
    )
    out.append(
        (
            "c1 f1_3 = [2] c1 + [2] c1 c2",
            mult(f1, f3) == f1.scale(d) + f12.scale(d),
        )
    )
    out.append(
        (
            "c2 f1_3 = [2] c2 + [2] c2 c1",
            mult(f2, f3) == f2.scale(d) + f21.scale(d),
        )
    )
    for i, fi in ((1, f1), (2, f2)):
        out.append(
            (
                f"c{i} f1_3 c{i} = [2]^3 c{i}",
                mult(mult(fi, f3), fi) == fi.scale(d**3),
            )
        )
        out.append(
            (
                f"f1_3 c{i} f1_3 = [2]^2 (c1 + c2 + c1 c2 + c2 c1)",
                mult(mult(f3, fi), f3) == (f1 + f2 + f12 + f21).scale(d * d),
            )
        )
    # rank position at the root: the cup-cap words span a 5-dimensional
    # quotient; the hexagonal element is inside it at n = 5 and extends
    # it to 6 dimensions for larger n.
    tl = [one, f1, f2, f12, f21]
    full = tl + [f3]
    field = CycloField.get(n)

    def gmat(els):
        return [
            [field.from_laurent(trace_right(mult(y.star(), z))) for y in els]
            for z in els
        ]

    r_tl = cyclo_rank(gmat(tl))
    r_full = cyclo_rank(gmat(full))
    out.append((f"cup-cap subalgebra rank 5 at n={n}", r_tl == 5))
    expected = 5 if n == 5 else 6
    out.append(
        (f"rank with hexagonal element = {expected} at n={n}", r_full == expected)
    )
    if n == 5:
        # the hexagonal element collapses into the cup-cap subalgebra:
        # f1_3 - ([3] 1 - c1 - c2 + [3](c1 c2 + c2 c1)) is a null vector
        diff = f3 - (one.scale(a) - f1 - f2 + (f12 + f21).scale(a))
        null = all(
            field.from_laurent(trace_right(mult(y.star(), diff))).is_zero()
            for y in full
        )
        out.append(("f1_3 = [3] - c1 - c2 + [3](c1 c2 + c2 c1) mod null at n=5", null))
    return out
