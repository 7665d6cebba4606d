"""Z is a planar-algebra map: a random web, normalized on one side and
evaluated on the other.

A random strip word w with top boundary sigma is built as a web
(``web.strip_word_web``) and rewritten to sum_k c_k b_k over the basis webs
of sigma (``rewrite.normalize``; each reduced web is matched to a basis web
by its canonical key).  Evaluated on the path side by ``pathalg.present_Z``,
with the basis webs as their strip words (``states.basis_words``), the
map Z must respect the rewriting:

    Z(w) = sum_k c_k(q) Z(b_k)   at q = e^(i pi / n),

to 1e-12 relative to the largest term of either side.  The loop, digon and
square rules and the isotopies that the strip words pass through are all
checked this way.  The graphs are A(5)..A(9) with their closed-form cells,
which are real, and JSON copies of A(6) and A(7) with least-squares cells,
which are complex, so that only they show whether a source's cell is
conjugated.
"""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2planar import pathalg as P
from a2planar.graph import CellSystem, FusionGraph, build_A, solve_cells
from a2planar.rewrite import enumerate_basis, is_reduced, normalize
from a2planar.states import basis_words
from a2planar.web import strip_word_web
from random_webs import random_strip_word

BOUND = 1e-12


@pytest.fixture(scope="module")
def graphs():
    out = {f"A({n})": build_A(n) for n in range(5, 10)}
    out |= {f"JSON A({n})": FusionGraph.from_json(build_A(n).to_json()) for n in (6, 7)}
    return {name: (g, solve_cells(g)) for name, g in out.items()}


@functools.cache
def basis_of(sigma):
    """The basis webs' strip words of ``sigma``, and each web's index by its
    canonical key."""
    return basis_words(sigma), {b.canonical_key(): k for k, b in enumerate(enumerate_basis(sigma))}


@functools.cache
def reduced_terms(word):
    """The top boundary of the strip word's web, and its normal form as
    (basis index, Laurent coefficient) pairs."""
    w = strip_word_web(word)
    index = basis_of(w.top)[1]
    return w.top, [(index[b.canonical_key()], c) for b, c in normalize(w).items()]


def z_error(word, g, cells):
    """max_p |Z(w)_p - sum_k c_k(q) Z(b_k)_p|, and the largest term of
    either side."""
    sigma, terms = reduced_terms(tuple(word))
    lhs = P.present_Z(word, [], g, cells)[1]
    rhs, scale = {}, max(map(abs, lhs.values()), default=0.0)
    for k, c in terms:
        cq = c.complex_at(g.n)
        for p, z in P.present_Z(basis_of(sigma)[0][k], [], g, cells)[1].items():
            rhs[p] = rhs.get(p, 0j) + cq * z
            scale = max(scale, abs(cq * z))
    return max((abs(lhs.get(p, 0j) - rhs.get(p, 0j)) for p in {*lhs, *rhs}), default=0.0), scale


def test_z_respects_the_rewriting_on_random_strip_words(graphs):
    seen = Counter()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def check(rng):
        word = random_strip_word(rng)
        w = strip_word_web(word)
        seen.update(words=1, not_reduced=not is_reduced(w), loops=w.loops > 0,
                    closed=not w.top, full=len(w.top) == 8)
        for name, (g, cells) in graphs.items():
            err, scale = z_error(word, g, cells)
            seen.update(cases=1, vacuous=scale == 0.0)
            assert err <= BOUND * scale, (name, word, err / scale)

    check()
    assert seen["not_reduced"] and seen["loops"] and seen["closed"] and seen["full"], seen
    assert 2 * seen["vacuous"] < seen["cases"], seen


@pytest.mark.parametrize("n", [6, 7])
def test_moved_cell_fails_the_bound(n):
    g = build_A(n)
    values = dict(solve_cells(g).values)
    values[min(values)] += 1e-6
    moved = CellSystem(g, values, 0.0)
    worst = 0.0
    for seed in range(40):
        err, scale = z_error(random_strip_word(random.Random(seed)), g, moved)
        worst = max(worst, err / scale if scale else 0.0)
    assert worst > BOUND
