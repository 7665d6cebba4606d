"""Basis webs as exact state vectors, and Gram ranks without closed webs.

Every web is an invariant tensor (Kuperberg's A2 spider).  Over the state
strings of a boundary word, one state -1, 0 or 1 per strand, the tensor
of a web is a vector whose entries are Laurent polynomials in q.  This
module grows the basis webs of a sign string as strip words
(``basis_words``), evaluates each strip word once, bottom strip first, as
such a vector, and takes every Gram entry as a dot product.

The walk goes strip by strip, from the empty word up.  Every weight is a
monomial q^e with coefficient 1; a and b are the states of the left and
right strand of the pair a strip acts on, below a merge and above a split:

* a cap puts (x, -x) and a cup removes (x, -x), each with weight q^x;
* a merge (``FORK_IN``, ``FORK_OUT``) takes a != b to a + b, and a split
  (``FORK_IN_INV``, ``FORK_OUT_INV``) takes c to every (a, c - a) with
  a != c - a, both states in {-1, 0, 1};
* the ``FORK_IN`` rule, of ``FORK_IN`` and ``FORK_IN_INV``, weighs q^a if
  b = -a and 1 otherwise; the ``FORK_OUT`` rule, of the other two forks,
  weighs q^(a - b) if |a - b| = 1 and 1 otherwise.

The vector v_i of basis web b_i is this walk over its word; the covector
u_j of the adjoint b_j* is the same walk with the two fork rules swapped.
The closed-diagram value of b_j* stacked over b_i, the Gram entry, is
sum_s v_i(s) u_j(s), a polynomial in q^(+-1); as a ``Laurent`` in
t = q^(1/3) its exponents are tripled.  The tests hold the closed-web
evaluation as the reference for every entry.

Certificate.  ``gram_values`` raises ArithmeticError unless the number
of words equals ``oracle.walk_dim`` and every vector's lexicographically
largest state string (states ordered -1 < 0 < 1) is its own dominant
state string, with coefficient 1.  The vectors are then unitriangular,
with unit leading coefficients, against distinct state strings, so they
are independent at every value of q, and there are dim Inv of them: they
span the same Z[q^(+-1)]-lattice as Kuperberg's web basis, whose tensors
are unitriangular against the same strings (Khovanov-Kuperberg).  The
change of basis between the two is invertible at every root of unity, so
the rank of this Gram matrix at the root is the quotient dimension.

Arithmetic.  A polynomial with nonnegative coefficients is packed into
one int, one slot of ``width`` bits per exponent, so a weight is a shift
and a sum or product of polynomials one int operation.  Every strip adds
1 to each exponent it weighs (q^e is stored as q^(e + 1)), so shifts go
left and the slot of exponent e of a word of k strips is e + k.  The
walk branches at most 3 ways at a cap and 2 at a split, so each
coefficient of v_i and u_i is at most the product m_i of the branchings
of its word, and each of a Gram entry at most m_i m_j: the width is the
bit length of the largest such product, and no slot can carry into the
next.
"""

from __future__ import annotations

from .oracle import flip, read_strip, walk_dim
from .scalar import Laurent, RealCycloRing, real_cyclo_rank

__all__ = ["basis_words", "gram_values", "quotient_dim"]


# Khovanov-Kuperberg states -1, 0, 1 and their weight steps on a '-' strand
# (the vector representation) and on a '+' strand (its dual)
_STATE_STEPS = {
    "-": ((-1, (0, -1)), (0, (-1, 1)), (1, (1, 0))),
    "+": ((-1, (-1, 0)), (0, (1, -1)), (1, (0, 1))),
}


def _dominant_states(sigma: str) -> list[tuple]:
    """State strings of the closed dominant walks of ``sigma``, in
    lexicographic order with the states tried -1, 0, 1."""
    back = [{(0, 0)}]  # back[j]: the weights from which the last j signs return to (0, 0)
    for sign in reversed(sigma):
        back.append({(a - da, b - db) for a, b in back[-1]
                     for _, (da, db) in _STATE_STEPS[sign] if a >= da and b >= db})
    walks = [((), (0, 0))]
    for sign, ends in zip(sigma, reversed(back[:-1])):
        walks = [(st + (state,), (a + da, b + db)) for st, (a, b) in walks
                 for state, (da, db) in _STATE_STEPS[sign] if (a + da, b + db) in ends]
    return [st for st, _ in walks]


def _grow(s: str, st: tuple) -> list:
    """The strip word, top strip first, of the web of a sign string and a
    closed dominant state string: a piece at the leftmost descent of the
    states, above the word grown from what remains."""
    if not s:
        return []
    i = next(i for i in range(len(s) - 1) if st[i] > st[i + 1])
    fork = {"-": "FORK_IN", "+": "FORK_OUT"}
    if s[i] == s[i + 1]:  # (1, 0), (1, -1), (0, -1) merge to 1, 0, -1
        piece, mid, new = [(fork[s[i]] + "_INV", i + 1)], (st[i] + st[i + 1],), flip(s[i])
    elif st[i] - st[i + 1] == 2:
        piece, mid, new = [("CAP", i + 1, s[i])], (), ""
    else:  # an H: a splitting fork above a merging one
        piece = [(fork[s[i]], i + 1), (fork[s[i + 1]] + "_INV", i + 2)]
        mid, new = (st[i + 1], st[i]), s[i + 1] + s[i]
    return piece + _grow(s[:i] + new + s[i + 2:], st[:i] + mid + st[i + 2:])


def basis_words(sigma: str) -> list[list]:
    """The strip word, top strip first, of each basis web of ``sigma``, one
    per closed dominant walk, in the order of the walks' state strings.

    These are the Khovanov-Kuperberg growth rules: at the leftmost descent
    of the walk's states the next strip is a merging fork (equal signs), a
    cap (opposite signs, states 1, -1) or an H, a splitting fork above a
    merging one (other opposite signs).  The tokens are those that
    ``pathalg.present_Z`` evaluates, with the sign rule of
    ``oracle.read_strip``."""
    return [_grow(sigma, st) for st in _dominant_states(sigma)]


# The exponent of each fork rule's weight on a pair of states a != b
_PAIRS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a != b]
_FORK_IN_RULE = {(a, b): a if b == -a else 0 for a, b in _PAIRS}
_FORK_OUT_RULE = {(a, b): a - b if abs(a - b) == 1 else 0 for a, b in _PAIRS}


def _moves(width: int) -> dict:
    """For each strip kind, the states of the strands it takes below ->
    a list of (the states of the strands it puts above, the shift of the
    vector's weight, the shift of the covector's weight).  Weight q^e is a
    shift by ``width`` * (e + 1)."""
    moves = {"CAP": {(): [((x, -x), width * (1 + x), width * (1 + x)) for x in (-1, 0, 1)]},
             "CUP": {(x, -x): [((), width * (1 + x), width * (1 + x))] for x in (-1, 0, 1)}}
    for kind, rule, corule in (("FORK_IN", _FORK_IN_RULE, _FORK_OUT_RULE),
                               ("FORK_OUT", _FORK_OUT_RULE, _FORK_IN_RULE)):
        merge, split = {}, {}
        for a, b in _PAIRS:
            shifts = width * (1 + rule[a, b]), width * (1 + corule[a, b])
            merge[a, b] = [((a + b,), *shifts)]
            split.setdefault((a + b,), []).append(((a, b), *shifts))
        moves[kind], moves[kind + "_INV"] = merge, split
    return moves


def _strip(moves: dict, i: int, vec: dict, covec: dict) -> tuple[dict, dict]:
    """The vector and covector above a strip at the 0-based strand i, from
    those below it; ``moves`` is the strip kind's entry of ``_moves``."""
    size = len(next(iter(moves)))
    out, coout = {}, {}
    for st, p in vec.items():
        c, head, tail = covec[st], st[:i], st[i + size:]
        for mid, shift, coshift in moves.get(st[i:i + size], ()):
            key = head + mid + tail
            out[key] = out.get(key, 0) + (p << shift)
            coout[key] = coout.get(key, 0) + (c << coshift)
    return out, coout


def _branching(word) -> int:
    """The product of the branchings of a word's strips: 3 at a cap, 2 at a
    split, 1 elsewhere."""
    m = 1
    for token in word:
        m *= 3 if token[0] == "CAP" else 2 if token[0].endswith("_INV") else 1
    return m


def _walks(words, width: int) -> tuple[list, list]:
    """The packed vector of each word and the covector of its adjoint, each
    suffix of strips evaluated once."""
    moves = _moves(width)
    done = {(): ("", {(): 1}, {(): 1})}  # suffix -> its top sign word, vector and covector

    def walk(suffix: tuple):
        got = done.get(suffix)
        if got is None:
            bot, vec, covec = walk(suffix[1:])
            token = suffix[0]
            top, _ = read_strip(token, bot)  # ValueError unless the strip fits
            got = done[suffix] = top, *_strip(moves[token[0]], token[1] - 1, vec, covec)
        return got

    walked = [walk(tuple(map(tuple, word))) for word in words]
    return [w[1] for w in walked], [w[2] for w in walked]


def _certified_walks(sigma: str):
    """The strip words of the basis webs of ``sigma``, the slot width, and
    the packed vector of each word and covector of its adjoint;
    ArithmeticError unless they pass the certificate of the module
    docstring."""
    states = _dominant_states(sigma)
    words = [_grow(sigma, st) for st in states]
    if len(words) != walk_dim(sigma):
        raise ArithmeticError(f"grown words on {sigma!r} are not a basis")
    width = (max(map(_branching, words), default=1) ** 2).bit_length()
    vecs, covecs = _walks(words, width)
    for st, vec in zip(states, vecs):
        lead = max(vec, default=None)
        p = vec.get(lead, 0)  # a monomial with coefficient 1 is one set bit at a slot's start
        if lead != st or p & (p - 1) or (p.bit_length() - 1) % width:
            raise ArithmeticError(f"the vector of the basis web {st} of {sigma!r} "
                                  "does not lead with its own state string")
    return words, width, vecs, covecs


def gram_values(sigma: str, convert) -> list[list]:
    """The Gram matrix of the basis webs of ``sigma``: entry (i, j) is the
    closed-diagram value of b_j* stacked over b_i, as a ``Laurent`` passed
    through ``convert``, once per distinct value.

    Only i <= j is computed: entry (j, i) is the value of the adjoint
    closed web, the bar of entry (i, j), and a closed web's value is an
    integer polynomial in [2] and [3], which the bar fixes.  Raises
    ArithmeticError unless the vectors pass the certificate of the module
    docstring, and unless the bar fixes every value, before ``convert``.
    """
    words, width, vecs, covecs = _certified_walks(str(sigma))
    m, vals = len(words), {}
    rows = [[None] * m for _ in range(m)]
    column = {}  # state string -> (j, u_j at it) for every covector u_j with j >= i
    for i in reversed(range(m)):
        for st, c in covecs[i].items():
            column.setdefault(st, []).append((i, c))
        dots = [0] * m
        for st, p in vecs[i].items():
            for j, c in column[st]:
                dots[j] += p * c
        for j in range(i, m):
            key = dots[j], len(words[i]) + len(words[j])  # the slot of q^0
            c = vals.get(key)
            if c is None:
                value = _laurent(dots[j], width, -key[1])
                if value != value.conjugate():
                    raise ArithmeticError(f"the bar moves Gram entry ({i}, {j}) of {sigma!r}")
                c = vals[key] = convert(value)
            rows[i][j] = rows[j][i] = c
    return rows


def _laurent(packed: int, width: int, low: int) -> Laurent:
    """The ``Laurent`` in t of a packed polynomial in q whose first slot
    holds q^low."""
    mask, coeffs = (1 << width) - 1, {}
    while packed:
        if packed & mask:
            coeffs[3 * low] = packed & mask
        packed >>= width
        low += 1
    return Laurent(coeffs)


def quotient_dim(sigma: str, n: int) -> int:
    """Rank of the Gram matrix of ``sigma`` at the order-``n`` root, the
    dimension of the quotient by null vectors, computed over
    Z[2cos(pi/n)]."""
    return real_cyclo_rank(gram_values(sigma, RealCycloRing.get(n).from_laurent))
