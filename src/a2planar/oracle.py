"""Representation-theoretic dimension counts, independent of any diagrams.

The invariant space attached to a boundary sign string has dimension equal
to the number of closed walks on the dominant Weyl chamber of sl(3): a '-'
sign tensors with the vector representation V (weight steps (1,0), (-1,1),
(0,-1) on highest weights), a '+' sign with its dual (the negated steps).
These counts are used as an oracle against the diagrammatic basis
enumeration, which is implemented by entirely different means.

At a root of unity q = e^(i pi / n) the chamber is truncated to
a + b <= n - 3, which counts walks on the fusion graph A^(n).

The module also holds the sign rule of the strip tokens (``read_strip``),
the one planar-piece vocabulary of both halves: ``web.strip_web`` builds
a strip's web and ``pathalg.present_Z`` evaluates it on paths.  The
six-vertex element's strip word, ``HEXAGON_WORD``, is kept here for both.
"""

from __future__ import annotations

__all__ = [
    "HEXAGON_WORD", "flip", "read_strip", "walk_dim", "walk_dim_truncated", "walk_endpoints",
]

_FLIP = str.maketrans("+-", "-+")
_MINUS_STEPS = ((1, 0), (-1, 1), (0, -1))
_PLUS_STEPS = ((-1, 0), (1, -1), (0, 1))


def flip(signs: str) -> str:
    """Negate every boundary sign."""
    return signs.translate(_FLIP)


# The signs a fork strip replaces (below) and the signs it puts in their
# place (above).  A cup replaces two opposite signs by nothing; a cap of
# sign s puts s and its opposite in place of nothing.
_FORKS = {
    "FORK_IN": ("++", "-"),
    "FORK_OUT": ("--", "+"),
    "FORK_IN_INV": ("+", "--"),
    "FORK_OUT_INV": ("-", "++"),
}


# The six-vertex diagram at level (3, 0), top strip first: the strip
# word of ``pathalg.word_hexagon`` and of ``web.hexagon_web``.
HEXAGON_WORD = (
    ("FORK_IN", 1),
    ("FORK_OUT_INV", 2),
    ("FORK_IN_INV", 2),
    ("FORK_OUT_INV", 2),
    ("FORK_IN_INV", 2),
    ("FORK_OUT_INV", 1),
    ("CAP", 1, "-"),
)


# The fields after the kind of each cup, cap and fork token
_FIELDS = {"CUP": ("i",), "CAP": ("i", "s"), **dict.fromkeys(_FORKS, ("i",))}


def read_strip(token, bot: str):
    """The word on top of a cup, cap or fork strip on the word ``bot``, and
    ``(position, below, above)``: at the 1-based position the signs ``below``
    give way to ``above``.  ValueError unless the token has its kind's
    fields, no more and no fewer, the position is an int and the strip
    fits."""
    if not token:
        raise ValueError(f"strip token {list(token)!r} names no kind")
    kind = token[0]
    if kind not in _FIELDS:
        raise ValueError(f"unknown strip token {kind!r}")
    if len(token) != 1 + len(_FIELDS[kind]):
        raise ValueError(f"strip token {list(token)!r} is not of the form "
                         f"[{kind!r}, {', '.join(_FIELDS[kind])}]")
    i = token[1]
    if type(i) is not int:
        raise ValueError(f"strip position in {list(token)!r} is not an int")
    if kind == "CUP":
        below, above = bot[i - 1:i + 1], ""
        if below not in ("-+", "+-"):
            raise ValueError(f"cup at {i} needs opposite signs below in {bot!r}")
    elif kind == "CAP":
        if token[2] not in ("-", "+"):
            raise ValueError(f"cap sign {token[2]!r} is not '-' or '+'")
        below, above = "", token[2] + flip(token[2])
    else:
        below, above = _FORKS[kind]
    if not 1 <= i <= len(bot) - len(below) + 1 or bot[i - 1:i - 1 + len(below)] != below:
        raise ValueError(f"{kind} at {i} needs {below!r} below in {bot!r}")
    return bot[:i - 1] + above + bot[i - 1 + len(below):], (i, below, above)


def _propagate(state: dict, sign: str, limit: int | None) -> dict:
    steps = _MINUS_STEPS if sign == "-" else _PLUS_STEPS
    out: dict = {}
    for (a, b), cnt in state.items():
        for da, db in steps:
            x, y = a + da, b + db
            if x < 0 or y < 0:
                continue
            if limit is not None and x + y > limit:
                continue
            out[(x, y)] = out.get((x, y), 0) + cnt
    return out


def walk_endpoints(sigma: str, limit: int | None = None) -> dict:
    """Endpoint multiplicities of dominant walks from (0,0) following sigma."""
    state = {(0, 0): 1}
    for s in sigma:
        if s not in "+-":
            raise ValueError(f"bad sign {s!r}")
        state = _propagate(state, s, limit)
    return state

def walk_dim(sigma: str) -> int:
    """dim Inv of the sl(3) representation labelled by the sign string."""
    return walk_endpoints(sigma).get((0, 0), 0)


def walk_dim_truncated(sigma: str, n: int) -> int:
    """Same count with weights confined to a + b <= n - 3 (fusion at level n)."""
    if n < 4:
        raise ValueError("n must be >= 4")
    return walk_endpoints(sigma, limit=n - 3).get((0, 0), 0)
