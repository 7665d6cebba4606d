#!/usr/bin/env python3
"""Compare the two routes to the Gram matrix of every sign word up to a
length: the basis-web state vectors of ``a2planar.states`` and the closed
webs of ``tests/closed_gram.py``.

For every word with a basis it compares the two Gram matrices entry by
entry, and ``states.quotient_dim`` at n = 4 to 8 with the rank of the
closed-web matrix over Q(zeta_6n), by the general elimination
``algebra.cyclo_rank``.  It prints one line per word length and each
mismatch, and exits 1 on any mismatch:

    PYTHONPATH=src python3 scripts/gram_routes.py --max-len 8
"""

import argparse
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))  # the closed-web reference

from closed_gram import closed_gram  # noqa: E402

from a2planar.algebra import cyclo_rank  # noqa: E402
from a2planar.oracle import walk_dim  # noqa: E402
from a2planar.scalar import CycloField  # noqa: E402
from a2planar.states import gram_values, quotient_dim  # noqa: E402

ORDERS = range(4, 9)


def mismatches(sigma: str) -> list:
    """What differs between the two routes on ``sigma``."""
    out = []
    ref = closed_gram(sigma)
    if gram_values(sigma, lambda value: value) != ref:
        out.append("gram")
    for n in ORDERS:
        field = CycloField.get(n)
        want = cyclo_rank([[field.from_laurent(c) for c in row] for row in ref])
        try:
            got = quotient_dim(sigma, n)
        except ArithmeticError as exc:
            got = exc
        if got != want:
            out.append(f"quotient_dim at n = {n}: {got} against {want}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-len", type=int, default=8, help="longest sign word compared")
    args = ap.parse_args()
    failed = 0
    for size in range(1, args.max_len + 1):
        words = [s for s in map("".join, itertools.product("-+", repeat=size)) if walk_dim(s)]
        entries = 0
        for sigma in words:
            entries += walk_dim(sigma) ** 2
            for what in mismatches(sigma):
                failed += 1
                print(f"mismatch: {sigma} {what}")
        print(f"length {size}: {len(words)} words, {entries} entries")
    print(f"{failed} mismatches")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
