"""Representation-theoretic dimension counts, independent of any diagrams.

The invariant space attached to a boundary sign string has dimension equal
to the number of closed walks on the dominant Weyl chamber of sl(3): a '-'
sign tensors with the vector representation V (weight steps (1,0), (-1,1),
(0,-1) on highest weights), a '+' sign with its dual (the negated steps).
These counts are used as an oracle against the diagrammatic basis
enumeration, which is implemented by entirely different means.

At a root of unity q = e^(i pi / n) the chamber is truncated to
a + b <= n - 3, which counts walks on the fusion graph A^(n).
"""

from __future__ import annotations

__all__ = ["flip", "walk_dim", "walk_dim_truncated", "walk_endpoints"]

_FLIP = str.maketrans("+-", "-+")
_MINUS_STEPS = ((1, 0), (-1, 1), (0, -1))
_PLUS_STEPS = ((-1, 0), (1, -1), (0, 1))


def flip(signs: str) -> str:
    """Negate every boundary sign."""
    return signs.translate(_FLIP)


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
