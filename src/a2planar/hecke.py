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
(Kuperberg: non-elliptic webs are a basis), and in word order each value
must add one reduced web that no earlier value has, with a unit
coefficient +-t^e: the values are then unitriangular up to units, so
independent, and the normalized input is solved by back-substitution in
Laurent polynomials.  The answer is certified by evaluating the word back.
"""

from __future__ import annotations

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


def _valued_words(m: int) -> list:
    """``_basis_words(m)`` as ``(word, value, lead, inverse)``: each value
    is one multiplication of its parent's value by W_i, its lead is the
    one reduced web that no earlier value has, and ``inverse`` is the
    inverse of the lead's coefficient.  ArithmeticError unless every value
    adds exactly one web and its coefficient is a unit, +-t^e."""
    gens = [wsum(m, i) for i in range(m - 1)]
    out, seen = [], set()
    for word, parent in _basis_words(m):
        val = identity(m) if parent is None else mult(out[parent][1], gens[word[-1][1]])
        new = [w for w in val.terms if w not in seen]
        c = val.terms[new[0]].c if len(new) == 1 else {}
        if len(c) != 1 or abs(*c.values()) != 1:
            raise ArithmeticError(
                f"the value of {word} does not add one new web with a unit coefficient"
            )
        (e, v), = c.items()
        seen.add(new[0])
        out.append((word, val, new[0], Laurent({-e: v})))
    return out


def decompose(x: WebSum) -> GeneratorWord:
    """Write ``x`` as a word combination in the W_i, exactly.

    ``x`` must live on ``m`` strands oriented ``-`` at top and bottom,
    the boundary of ``identity(m)``.  Words: ``_basis_words(m)``, one per
    4321-avoiding permutation, each valued with one multiplication of its
    parent's value by W_i.  They are a basis because W_i satisfies the
    Kazhdan-Lusztig relations of C'_{s_i}, the kernel of the Hecke algebra
    onto End(V^{(x)m}) with dim V = 3 is spanned by the C'_w with w
    containing 4321, and the product along a reduced word of w is C'_w
    plus lower terms.  Solve: in word order each value adds one reduced
    web, its lead, with a unit coefficient, so the values are unitriangular
    up to units against the reduced webs; ``x`` is normalized onto the
    reduced webs and solved from the last word down, each coefficient its
    lead's residual times the inverse unit, a Laurent polynomial.

    Nothing of this is taken on trust: ArithmeticError unless there are
    ``walk_dim`` words, the number of reduced webs (Kuperberg), and every
    value adds one new web with a unit coefficient, which certifies that
    the values are independent and so span; the word is certified by
    evaluating it back.
    """
    m = len(x.top)
    unit = identity(m)
    if (x.top, x.bot) != (unit.top, unit.bot):
        raise WebError(
            f"decompose needs the boundary of identity({m}), {unit.top!r} over "
            f"{unit.bot!r}; got {x.top!r} over {x.bot!r}"
        )
    valued = _valued_words(m)
    if len(valued) != walk_dim(x.top + flip(x.top)[::-1]):
        raise ArithmeticError("the basis words do not count the reduced webs")
    x = x.normalized()
    rest, zero, terms = dict(x.terms), Laurent.zero(), []
    for word, val, lead, inverse in reversed(valued):
        r = rest.get(lead, zero)
        if not r.is_zero():
            c = r * inverse
            terms.append((word, c))
            for w, v in val.terms.items():
                rest[w] = rest.get(w, zero) - c * v
    out = GeneratorWord(m, terms[::-1])
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
