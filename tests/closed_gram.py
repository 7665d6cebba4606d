"""The closed-web route to Gram matrices, the reference for ``states``.

Entry (i, j) of the Gram matrix of a boundary word is the closed web b_j*
stacked over b_i, reduced to a scalar by ``rewrite.normalize``
(``algebra._closed_value``).  The tests and ``scripts/gram_routes.py``
hold ``states.gram_values``, which evaluates no closed web, against it.
"""

from a2planar.algebra import _closed_value
from a2planar.rewrite import enumerate_basis
from a2planar.scalar import Laurent


def closed_gram(sigma: str) -> list[list[Laurent]]:
    """The Gram matrix of the reduced-web basis of ``sigma``, each distinct
    closed web evaluated once.

    Only i <= j is built: entry (j, i) is the value of the adjoint closed
    web, the bar of entry (i, j), and a closed web's value is an integer
    polynomial in [2] and [3], which the bar fixes.
    """
    basis = enumerate_basis(sigma)
    stars = [b.star() for b in basis]
    m = len(basis)
    rows = [[None] * m for _ in range(m)]
    vals = {}
    for i, bi in enumerate(basis):
        for j in range(i, m):
            closed = stars[j].compose(bi, check=False)
            c = vals.get(closed)
            if c is None:
                c = vals[closed] = _closed_value(closed)
            rows[i][j] = rows[j][i] = c
    return rows
