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

``decompose`` uses an exact linear solve over the rational-function
field in t rather than diagrammatic moves; solvability is guaranteed by
the generation statement and the result is verified by evaluating the
word back.
"""

from __future__ import annotations

import sympy

from .algebra import (
    WebSum,
    bend,
    cyclo_rank,
    identity,
    mult,
    trace_right,
    wsum,
)
from .rewrite import enumerate_basis
from .scalar import CycloField, Fraction, Laurent, alpha, delta
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

_T = sympy.Symbol("t")


def _lau_to_sym(x: Laurent):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * _T**e for e, c in x.c.items()),
        sympy.Integer(0),
    )


def _sym_to_lau(expr) -> Laurent:
    expr = sympy.cancel(sympy.together(expr))
    num, den = sympy.fraction(expr)
    dp = sympy.Poly(den, _T)
    if len(dp.monoms()) != 1:
        raise WebError("coefficient is not a Laurent polynomial in t")
    (de,) = dp.monoms()
    dc = dp.coeffs()[0]
    np_ = sympy.Poly(sympy.expand(num), _T)
    out = {}
    for (e,), c in zip(np_.monoms(), np_.coeffs()):
        out[e - de[0]] = Fraction(sympy.Rational(c / dc).p, sympy.Rational(c / dc).q)
    return Laurent(out)


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


def _vector(x: WebSum, index: dict) -> list:
    v = [sympy.Integer(0)] * len(index)
    for w, c in x.terms.items():
        v[index[w]] = _lau_to_sym(c)
    return v


def decompose(x: WebSum, max_len: int = 8) -> GeneratorWord:
    """Write ``x`` as a word combination in the W_i, exactly.

    Words are enumerated in length-lexicographic order until they span
    the full algebra (dimension known from the reduced-web basis); the
    resulting linear system is solved over the rational-function field
    and the answer certified by re-evaluation.
    """
    m = len(x.top)
    sigma = x.top
    dim = len(enumerate_basis(sigma + flip(sigma)[::-1]))
    index: dict = {}
    words: list[tuple] = []
    vecs: list[list] = []
    frontier = [()]
    basis_mat = None
    rank = 0
    for _ in range(max_len + 1):
        new_frontier = []
        for word in frontier:
            gw = GeneratorWord(m, {word: Laurent.one()})
            val = evaluate(gw)
            for w in val.terms:
                if w not in index:
                    index[w] = len(index)
            words.append(word)
            vecs.append(val)
            new_frontier.extend(word + (("w", i),) for i in range(m - 1))
        # re-vectorize everything against the current web index
        mat = sympy.Matrix([_vector(v, index) for v in vecs])
        rank = mat.rank()
        if rank == dim:
            basis_mat = mat
            break
        frontier = new_frontier
    if rank != dim:
        raise WebError("generator words did not span the algebra")
    for w in x.terms:
        if w not in index:
            raise WebError("element is not in the span of the basis webs")
    target = sympy.Matrix([_vector(x, index)])
    sol, params = basis_mat.T.gauss_jordan_solve(target.T)
    if params:
        sol = sol.subs({p: 0 for p in params})
    # exact check and conversion
    if any(sympy.cancel(r) != 0 for r in (basis_mat.T * sol - target.T)):
        raise WebError("exact solve failed")
    terms = []
    for k, word in enumerate(words):
        c = sympy.cancel(sol[k])
        if c != 0:
            terms.append((word, _sym_to_lau(c)))
    out = GeneratorWord(m, terms)
    if evaluate(out) != x:
        raise WebError("round-trip check failed")
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
