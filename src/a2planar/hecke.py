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

``decompose`` is exact linear algebra, not diagrammatic moves.  Its words
are the first reduced words of the 4321-avoiding permutations, a basis
because W_i satisfies the Kazhdan-Lusztig relations of C'_{s_i} and the
kernel onto the m strands is spanned by the C'_w with w containing 4321.
Their count must equal ``oracle.walk_dim``, the number of reduced webs
(Kuperberg: non-elliptic webs are a basis).  The system over the reduced
webs is solved once, fraction-free over Z[t] (Bareiss), which finds a
pivot in every column only if the words' values are independent, and the
answer is certified by evaluating the word back.
"""

from __future__ import annotations

import math
from itertools import combinations

from .algebra import (
    WebSum,
    fsum,
    identity,
    mult,
    trace_right,
    wsum,
)
from .oracle import flip, walk_dim, walk_dim_truncated

# enumerate_basis is unused here but stays importable from this module:
# perfbench/selftest.py checks that the tracer wraps it here too.
from .rewrite import enumerate_basis  # noqa: F401
from .scalar import (
    Laurent,
    RealCycloRing,
    _as_laurent,
    _poly_divmod,
    _poly_exquo,
    _poly_mul,
    _poly_sub,
    alpha,
    collect,
    delta,
    real_cyclo_rank,
)
from .web import WebError, cupcap_web, hexagon_web, identity_web

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

    A word is a tuple of letters; a letter is ``("w", i)`` or ``("f", i)``
    (the double element W_i W_{i+1} W_i - W_i).  The empty word is the
    identity.  Coefficients are Laurent scalars.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = collect((tuple(map(tuple, word)), _as_laurent(c)) for word, c in items)

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
        return fsum(m, i)
    raise WebError(f"unknown letter kind {kind!r}")


def evaluate(word: GeneratorWord) -> WebSum:
    """Expand each letter to its diagram and multiply left to right."""
    unit = identity(word.m)
    total = WebSum(unit.top, unit.bot)
    for w, c in word.terms.items():
        x = unit
        for letter in w:
            x = mult(x, _letter_sum(word.m, letter))
        total = total + x.scale(c)
    return total


# -- decomposition by exact linear solve -----------------------------------


def _basis_words(m: int) -> list:
    """One word in the W_i per 4321-avoiding permutation of ``m`` strands,
    its first reduced word in length-lexicographic order, as ``(word,
    parent)`` pairs in that order; ``parent`` indexes the word less its
    last letter.  Breadth first: the first reduced word of a permutation
    extends the first one of its prefix, and a 4321 pattern, four
    pairwise inversions, survives every lengthening."""
    perms, words = [tuple(range(m))], [((), None)]
    seen = set(perms)
    for k, p in enumerate(perms):  # grows as it goes
        for i in range(m - 1):
            q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
            if p[i] < p[i + 1] and q not in seen:
                seen.add(q)
                if not any(a > b > c > d for a, b, c, d in combinations(q, 4)):
                    perms.append(q)
                    words.append((words[k][0] + (("w", i),), k))
    return words


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
    """Solve the system given by the augmented rows [A | b] over Z[t] by
    fraction-free elimination.  Returns ``(y, det)`` with polynomials y_i,
    det such that A (y / det) = b on the pivot rows; ArithmeticError if
    some column of A has no pivot, that is if the columns are dependent."""
    n = len(a[0]) - 1
    prev = [1]
    for k in range(n):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            raise ArithmeticError("the words' values are linearly dependent")
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


def decompose(x: WebSum) -> GeneratorWord:
    """Write ``x`` as a word combination in the W_i, exactly.

    ``x`` must live on ``m`` strands oriented ``-`` at top and bottom,
    the boundary of ``identity(m)``.  Words: ``_basis_words(m)``, one per
    4321-avoiding permutation, each valued with one multiplication of its
    parent's value by W_i.  They are a basis because W_i satisfies the
    Kazhdan-Lusztig relations of C'_{s_i}, the kernel of the Hecke algebra
    onto End(V^{(x)m}) with dim V = 3 is spanned by the C'_w with w
    containing 4321, and the product along a reduced word of w is C'_w
    plus lower terms.  Solve: one equation per reduced web in the words'
    values, each cleared of its power of t and denominators, eliminated
    fraction-free over Z[t] and back-substituted.

    Nothing of this is taken on trust: ArithmeticError unless there are
    ``walk_dim`` words, the number of reduced webs (Kuperberg), and the
    elimination finds a pivot in every column, which certifies that the
    words' values are independent and so span.  Every coefficient must
    divide out to a Laurent polynomial, and the word is certified by
    evaluating it back.
    """
    m = len(x.top)
    unit = identity(m)
    if (x.top, x.bot) != (unit.top, unit.bot):
        raise WebError(
            f"decompose needs the boundary of identity({m}), {unit.top!r} over "
            f"{unit.bot!r}; got {x.top!r} over {x.bot!r}"
        )
    words = _basis_words(m)
    if len(words) != walk_dim(x.top + flip(x.top)[::-1]):
        raise ArithmeticError("the basis words do not count the reduced webs")
    gens = [wsum(m, i) for i in range(m - 1)]
    vals = [unit]
    for word, parent in words[1:]:
        vals.append(mult(vals[parent], gens[word[-1][1]]))
    webs = dict.fromkeys(w for val in vals for w in val.terms)
    zero = Laurent.zero()
    rows = [_cleared([val.terms.get(w, zero) for val in vals] + [x.terms.get(w, zero)])
            for w in webs]
    y, det = _bareiss(rows)
    if any(w not in webs for w in x.terms):
        raise WebError("element is not in the span of the basis webs")
    out = GeneratorWord(
        m, [(word, _laurent_quotient(yi, det)) for (word, _), yi in zip(words, y) if yi]
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
    # rank position at the root.  The six elements are 3-strand webs beside
    # m - 3 strands, whose closures only scale the Gram matrix by [3]^(m-3),
    # so the walk oracle on -+-+-+ gives the full rank: 1, 5 and 6 dimensions
    # at n = 4, 5 and above.  The cup-cap words span all of it but the
    # hexagonal direction, which collapses into them at n <= 5.
    full_rank = walk_dim_truncated("-+-+-+", n)
    tl_rank = min(5, full_rank)
    tl = [one, f1, f2, f12, f21]
    full = tl + [f3]
    ring = RealCycloRing.get(n)

    def gmat(els):
        return [
            [ring.from_laurent(trace_right(mult(y.star(), z))) for y in els]
            for z in els
        ]

    r_tl = real_cyclo_rank(gmat(tl))
    r_full = real_cyclo_rank(gmat(full))
    out.append((f"cup-cap subalgebra rank {tl_rank} at n={n}", r_tl == tl_rank))
    out.append((f"rank with hexagonal element = {full_rank} at n={n}", r_full == full_rank))
    if n == 5:
        # the hexagonal element collapses into the cup-cap subalgebra:
        # f1_3 - ([3] 1 - c1 - c2 + [3](c1 c2 + c2 c1)) is a null vector
        diff = f3 - (one.scale(a) - f1 - f2 + (f12 + f21).scale(a))
        null = all(
            ring.from_laurent(trace_right(mult(y.star(), diff))).is_zero()
            for y in full
        )
        out.append(("f1_3 = [3] - c1 - c2 + [3](c1 c2 + c2 c1) mod null at n=5", null))
    return out
