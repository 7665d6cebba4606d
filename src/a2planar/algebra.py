"""Linear algebra over reduced webs.

``WebSum`` is a formal linear combination of webs with a common boundary,
with Laurent coefficients; its JSON form is a list of ``{"coeff", "web"}``
rows.  Multiplication composes diagrams and reduces the result, crossings
included, the star is the diagram adjoint with bar-conjugated
coefficients, and the right/left traces close a diagram off to a scalar.

Two trace normalizations appear in the literature; here ``trace_right``
returns the raw closed-diagram value ``Tr`` (so ``Tr(1_m) = [3]^m``), and
the normalized trace ``tr = [3]^(-m) Tr`` is only formed at a root of
unity, where ``[3]`` is invertible (``inner_product``).  Identities
involving ``tr`` are asserted in cleared form over the Laurent ring.

``gram`` pairs the reduced-web basis of a boundary word with its Gram
matrix from ``states.gram_values`` over Q(zeta_6n); ``cyclo_rank``,
elimination there, is the reference for ``states.quotient_dim``, the
rank taken in Z[2cos(pi/n)].
"""

from __future__ import annotations

from .oracle import flip
from .scalar import Cyclo, CycloField, Laurent, _as_laurent, collect, delta
from .rewrite import enumerate_basis, normalize
from .states import basis_words, gram_values
from .web import Web, WebError, crossing_web, identity_web, strip_word_web, wgen_web

__all__ = [
    "WebSum",
    "identity",
    "bend",
    "wsum",
    "fsum",
    "mult",
    "include",
    "trace_right",
    "trace_left",
    "inner_product",
    "gram",
    "cyclo_rank",
    "check_hecke",
    "check_su3",
    "check_frels",
    "check_markov",
    "check_braid",
    "check_spherical",
]


class WebSum:
    """Linear combination of webs sharing a boundary word."""

    __slots__ = ("top", "bot", "terms")

    def __init__(self, top: str, bot: str, terms=None):
        self.top = top
        self.bot = bot
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms: dict[Web, Laurent] = collect(_on_boundary(top, bot, items))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_web(w: Web, coeff=1) -> "WebSum":
        return WebSum(w.top, w.bot, [(w, coeff)])

    # -- ring structure ---------------------------------------------------

    def _check(self, other: "WebSum") -> None:
        if (self.top, self.bot) != (other.top, other.bot):
            raise WebError("boundary mismatch")

    def __add__(self, other: "WebSum") -> "WebSum":
        self._check(other)
        return WebSum(self.top, self.bot, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "WebSum":
        return WebSum(self.top, self.bot, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "WebSum") -> "WebSum":
        return self + (-other)

    def scale(self, k) -> "WebSum":
        k = _as_laurent(k)
        return WebSum(self.top, self.bot, {w: c * k for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WebSum):
            return NotImplemented
        return (
            self.top == other.top
            and self.bot == other.bot
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.top, self.bot, frozenset(self.terms.items())))

    def __repr__(self):
        return f"WebSum({self.top!r}, {self.bot!r}, {len(self.terms)} terms)"

    # -- diagram operations ------------------------------------------------

    def star(self) -> "WebSum":
        out = [(w.star(), c.conjugate()) for w, c in self.terms.items()]
        return WebSum(flip(self.bot), flip(self.top), out)

    def tensor(self, other: "WebSum") -> "WebSum":
        out = [
            (wa.tensor(wb), ca * cb)
            for wa, ca in self.terms.items()
            for wb, cb in other.terms.items()
        ]
        return WebSum(self.top + other.top, self.bot + other.bot, out)

    def normalized(self, strategy: str = "first", rng=None) -> "WebSum":
        return WebSum(self.top, self.bot, normalize(self.terms, strategy=strategy, rng=rng))

    def to_json(self) -> list:
        """One row ``{"coeff", "web"}`` per term, in the order of ``terms``.
        A zero sum is one row with coefficient 0 on the first basis web of
        its boundary, so that ``from_json`` reads the boundary back."""
        if not self.terms:
            words = basis_words(self.top + self.bot[::-1])
            if not words:
                raise WebError(f"no web has the boundary {self.top!r} over {self.bot!r}")
            w = bend(strip_word_web(words[0]), len(self.top))
            return [{"coeff": Laurent.zero().to_json(), "web": w.to_json()}]
        return [{"coeff": c.to_json(), "web": w.to_json()} for w, c in self.terms.items()]

    @staticmethod
    def from_json(rows: list) -> "WebSum":
        """The sum of the rows that ``to_json`` writes.  The boundary is that
        of the first web, so an empty list, which has none, is refused; a
        row with coefficient 0 gives the boundary and no term."""
        if type(rows) is not list or not rows or not all(type(r) is dict for r in rows):
            raise ValueError("web sum is not a list of one or more {coeff, web} objects")
        terms = [(Web.from_json(r["web"]), Laurent.from_json(r["coeff"])) for r in rows]
        return WebSum(terms[0][0].top, terms[0][0].bot, terms)


def _on_boundary(top: str, bot: str, items):
    """The (web, coefficient) pairs with Laurent coefficients; each web must
    have the boundary ``top`` over ``bot``."""
    for w, c in items:
        c = _as_laurent(c)
        if (w.top, w.bot) != (top, bot):
            raise WebError("term boundary does not match the sum")
        yield w, c


# -- standard elements ----------------------------------------------------


def bend(w: Web, k: int) -> Web:
    """Re-present a web with ``k`` of its circular boundary points on top.

    Circular positions and all edges are unchanged; only the top/bottom
    split of the boundary word moves (boundary rotation is *not* done
    here, only the horizontal cut point).
    """
    c = w.top + w.bot[::-1]
    if not 0 <= k <= len(c):
        raise WebError("cut point out of range")
    return Web(c[:k], c[k:][::-1], w.verts, w.edges, w.loops)


def identity(m: int, sign: str = "-") -> WebSum:
    """The unit of the endomorphism algebra on ``m`` like-oriented strands."""
    return WebSum.from_web(identity_web(sign * m))


def wsum(m: int, i: int, sign: str = "-") -> WebSum:
    """The generator W_i on ``m`` strands (sink over source at i, i+1)."""
    return WebSum.from_web(wgen_web(sign * m, i))


def fsum(m: int, i: int, sign: str = "-") -> WebSum:
    """F_i = W_i W_{i+1} W_i - W_i, the double generator."""
    w_i, w_i1 = wsum(m, i, sign), wsum(m, i + 1, sign)
    return mult(mult(w_i, w_i1), w_i) - w_i


def mult(a: WebSum, b: WebSum) -> WebSum:
    """Stack ``a`` above ``b`` and reduce every composite."""
    if flip(a.bot) != b.top:
        raise WebError("boundary mismatch in mult")
    stack = [
        (wa.compose(wb, check=False), ca * cb)
        for wa, ca in a.terms.items()
        for wb, cb in b.terms.items()
    ]
    return WebSum(a.top, b.bot, normalize(stack))


def include(x: WebSum, m: int, sign: str = "-") -> WebSum:
    """Embed an m'-strand element into ``m`` strands by adding vertical strings."""
    n = len(x.top)
    if m < n:
        raise WebError("cannot include into fewer strands")
    if m == n:
        return x
    return x.tensor(identity(m - n, sign))


# -- traces ----------------------------------------------------------------


def _closed_value(items) -> Laurent:
    red = normalize(items)
    total = Laurent.zero()
    for w, c in red.items():
        if w.top or w.bot or w.verts or w.edges:
            raise WebError("closure did not reach a scalar")
        total = total + c
    return total


def trace_right(x: WebSum) -> Laurent:
    """Raw right trace: close every strand off to the right and evaluate.

    Unnormalized: ``trace_right(identity(m)) == [3]**m``.
    """
    return _closed_value([(w.close_right(), c) for w, c in x.terms.items()])


def trace_left(x: WebSum) -> Laurent:
    """Raw left trace; equals ``trace_right`` by sphericality."""
    return _closed_value([(w.close_left(), c) for w, c in x.terms.items()])


def inner_product(a: WebSum, b: WebSum, n: int) -> Cyclo:
    """Normalized sesquilinear pairing tr(b* a) at the order-``n`` root.

    Linear in ``a``, conjugate-linear in ``b``.
    """
    if (a.top, a.bot) != (b.top, b.bot):
        raise WebError("boundary mismatch in inner product")
    raw = _closed_value(
        [
            (wb.star().compose(wa, check=False).close_right(), ca * cb.conjugate())
            for wa, ca in a.terms.items()
            for wb, cb in b.terms.items()
        ]
    )
    field = CycloField.get(n)
    return field.from_laurent(raw) * field.inv_alpha_power(len(a.bot))


# -- Gram matrices ---------------------------------------------------------


def gram(sigma: str, n: int):
    """The reduced-web basis on ``sigma`` and its Gram matrix over Q(zeta_6n),
    ``states.gram_values``: ``[3]^|sigma|`` times the normalized pairing."""
    return enumerate_basis(sigma), gram_values(sigma, CycloField.get(n).from_laurent)


def cyclo_rank(rows) -> int:
    """Exact rank of a matrix of cyclotomic-field entries."""
    mat = [list(r) for r in rows]
    rank = 0
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inv()
        for r in range(rank + 1, nrows):
            if mat[r][col].is_zero():
                continue
            f = mat[r][col] * inv
            for cc in range(col, ncols):
                mat[r][cc] = mat[r][cc] - f * mat[rank][cc]
        rank += 1
    return rank


# -- identity suites -------------------------------------------------------


def check_hecke(m: int) -> list[tuple[str, bool]]:
    """H1-H3 for the W_i on ``m`` strands, as exact reduced-web identities."""
    d = delta()
    out = []
    for i in range(m - 1):
        wi = wsum(m, i)
        out.append((f"H1: W_{i}^2 = [2] W_{i} (m={m})", mult(wi, wi) == wi.scale(d)))
    for i in range(m - 1):
        for j in range(i + 2, m - 1):
            wi, wj = wsum(m, i), wsum(m, j)
            out.append(
                (f"H2: W_{i} W_{j} commute (m={m})", mult(wi, wj) == mult(wj, wi))
            )
    for i in range(m - 2):
        wi, wj = wsum(m, i), wsum(m, i + 1)
        lhs = mult(mult(wi, wj), wi) - wi
        rhs = mult(mult(wj, wi), wj) - wj
        out.append((f"H3: braid-type relation at {i} (m={m})", lhs == rhs))
    return out


def check_su3(m: int = 4) -> list[tuple[str, bool]]:
    """(W_i - W_{i+2}W_{i+1}W_i + W_{i+1}) F_{i+1} = 0 on ``m`` strands."""
    out = []
    for i in range(m - 3):
        wi, wi1, wi2 = wsum(m, i), wsum(m, i + 1), wsum(m, i + 2)
        lhs = wi - mult(mult(wi2, wi1), wi) + wi1
        prod = mult(lhs, fsum(m, i + 1))
        out.append((f"SU3: cubic relation at {i} (m={m})", prod.is_zero()))
    return out


def check_frels(m: int) -> list[tuple[str, bool]]:
    """F_i F_{i+-1} F_i = [2]^2 F_i and the distance-2 contractions."""
    d = delta()
    out = []
    fs = {i: fsum(m, i) for i in range(m - 2)}
    for i in fs:
        for j in (i - 1, i + 1):
            if j in fs:
                lhs = mult(mult(fs[i], fs[j]), fs[i])
                out.append(
                    (
                        f"F_{i} F_{j} F_{i} = [2]^2 F_{i} (m={m})",
                        lhs == fs[i].scale(d * d),
                    )
                )
        for j, k in ((i + 2, i + 3), (i - 2, i - 2)):
            if j in fs and 0 <= k < m - 1:
                lhs = mult(mult(fs[i], fs[j]), fs[i])
                rhs = mult(fs[i], wsum(m, k)).scale(d)
                out.append((f"F_{i} F_{j} F_{i} = [2] F_{i} W_{k} (m={m})", lhs == rhs))
    return out


def _random_element(m: int, rng, length: int = 3) -> WebSum:
    x = identity(m)
    for _ in range(length):
        i = rng.randrange(m - 1)
        x = mult(x, wsum(m, i))
    return x


def check_markov(k: int, trials: int, rng) -> list[tuple[str, bool]]:
    """Tr(W_k iota(x)) = [2] Tr(x), the cleared form of the Markov property."""
    d = delta()
    out = []
    ok = True
    for _ in range(trials):
        x = _random_element(k, rng)
        lhs = trace_right(mult(wsum(k + 1, k - 1), include(x, k + 1)))
        if lhs != d * trace_right(x):
            ok = False
            break
    out.append((f"Markov: Tr(W iota(x)) = [2] Tr(x), k={k}, {trials} trials", ok))
    return out


def check_braid(m: int = 3) -> list[tuple[str, bool]]:
    """Reidemeister II/III through crossing expansion, as reduced-web sums."""
    s = "-" * m
    out = []
    pos = WebSum.from_web(crossing_web(s, 0, True))
    neg = WebSum.from_web(crossing_web(s, 0, False))
    out.append(("R2: positive over negative crossing = identity", mult(pos, neg) == identity(m)))
    if m >= 3:
        p0 = WebSum.from_web(crossing_web(s, 0, True))
        p1 = WebSum.from_web(crossing_web(s, 1, True))
        lhs = mult(mult(p0, p1), p0)
        rhs = mult(mult(p1, p0), p1)
        out.append(("R3: braid relation for positive crossings", lhs == rhs))
    return out


def check_spherical(max_len: int = 3) -> list[tuple[str, bool]]:
    """Left and right traces agree on every basis web of sigma sigma*."""
    out = []
    words = ["-", "+", "--", "-+", "+-", "---", "--+", "-+-", "+--"]
    for s in words:
        if len(s) > max_len:
            continue
        sig = s + flip(s)[::-1]
        ok = True
        for b in enumerate_basis(sig):
            x = WebSum.from_web(bend(b, len(s)))
            if trace_right(x) != trace_left(x):
                ok = False
                break
        out.append((f"spherical: left = right trace on basis of {sig}", ok))
    return out
