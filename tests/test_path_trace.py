"""The path trace: a second route for the Gram matrix of every boundary word.

Each basis web of sigma is a strip word (``states.basis_words``), and
``pathalg.present_Z`` takes it to a vector over the closed sigma-paths of
A(n) from the distinguished vertex.  At q = e^(i pi / n) the Gram matrix is

    G_ij = sum_p Z(b_i)_p conj(Z(b_j)_p) w_p,

where w_p is phi at the midpoint vertex of p for even |sigma| (undoing the
closed-diagram normalization of both factors) and 1 for odd |sigma|.  It
must equal the exact Gram matrix, whose entries are evaluated at q only at
the end, to 1e-12 relative to its largest entry.
"""

import functools
import itertools
import random

import numpy as np
import pytest

from a2planar import pathalg as P
from a2planar.graph import CellSystem, FusionGraph, build_A, solve_cells
from a2planar.oracle import walk_dim
from a2planar.rewrite import enumerate_basis
from a2planar.states import basis_words, gram_values
from a2planar.web import strip_word_web

BOUND = 1e-12
SHORT_WORDS = ["".join(s) for k in range(7) for s in itertools.product("-+", repeat=k)
               if walk_dim("".join(s))]
LONG_WORDS = sorted(random.Random(8).sample(
    ["".join(s) for s in itertools.product("-+", repeat=8) if walk_dim("".join(s))], 5))


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for n in range(5, 10):
        g = build_A(n)
        out[n] = (g, solve_cells(g))
    return out


@functools.cache
def exact_values(sigma):
    """The exact Gram entries of ``sigma`` as Laurent polynomials."""
    return gram_values(sigma, lambda value: value)


def path_gram(words, g, cells, sigma):
    """The Gram matrix of the strip words' Z vectors, with weights w_p."""
    vecs = [P.present_Z(word, [], g, cells)[1] for word in words]
    paths = sorted({p for v in vecs for p in v})
    half = len(sigma) // 2
    w = [g.phi[P.path_range(g, p[:half])] if len(sigma) % 2 == 0 else 1.0 for p in paths]
    M = np.array([[v.get(p, 0.0) for p in paths] for v in vecs], dtype=complex)
    return (M * w) @ M.conj().T


def relative_error(words, g, cells, sigma, values):
    exact = np.array([[c.complex_at(g.n) for c in row] for row in values])
    return abs(path_gram(words, g, cells, sigma) - exact).max() / abs(exact).max()


def test_short_words_at_every_n(graphs):
    worst = 0.0
    for sigma in SHORT_WORDS:
        words, values = basis_words(sigma), exact_values(sigma)
        for g, cells in graphs.values():
            worst = max(worst, relative_error(words, g, cells, sigma, values))
    assert len(SHORT_WORDS) == 43
    assert worst < BOUND


@pytest.mark.parametrize("sigma", LONG_WORDS)
def test_sampled_length_8_words(graphs, sigma):
    g, cells = graphs[random.Random(sigma).randrange(5, 10)]
    assert relative_error(basis_words(sigma), g, cells, sigma, exact_values(sigma)) < BOUND


def test_length_10_word(graphs):
    sigma = "-+-+-+-+-+"
    g, cells = graphs[7]
    assert relative_error(basis_words(sigma), g, cells, sigma, exact_values(sigma)) < BOUND


@pytest.mark.parametrize("n", [6, 7])
def test_complex_cells_of_a_json_graph(n):
    """The closed-form cells of A(n) are real; the least-squares cells of
    its JSON copy are complex, in another gauge, so only they show whether
    a source's cell is conjugated."""
    g = FusionGraph.from_json(build_A(n).to_json())
    cells = solve_cells(g)
    assert max(abs(w.imag) for w in cells.values.values()) > 1.0
    for sigma in [*SHORT_WORDS, "--+-++-+"]:
        assert relative_error(basis_words(sigma), g, cells, sigma, exact_values(sigma)) < BOUND


CONTROL_WORDS = ("---+++", "--+-++-+", "-+-+-+-+")


@pytest.mark.parametrize("n", [6, 7])
def test_moved_cell_fails_the_bound(n):
    g = build_A(n)
    values = dict(solve_cells(g).values)
    key = min(values)
    values[key] += 1e-6
    moved = CellSystem(g, values, 0.0)
    for sigma in CONTROL_WORDS:
        assert relative_error(basis_words(sigma), g, moved, sigma, exact_values(sigma)) > BOUND


@pytest.mark.parametrize("n", [6, 7])
def test_scaled_phi_fails_the_bound(n):
    g = build_A(n)
    cells = solve_cells(g)
    g.__dict__["phi"] = {**g.phi, g.star: 1.01 * g.phi[g.star]}
    for sigma in CONTROL_WORDS:
        assert relative_error(basis_words(sigma), g, cells, sigma, exact_values(sigma)) > BOUND


def right_fork_first(word):
    """The word with each H's two forks in the other order: the right fork
    above the left one."""
    out = list(word)
    for t, token in enumerate(word):
        if token[0] in ("FORK_IN", "FORK_OUT"):  # the upper fork of an H
            (upper, k), (lower, _) = token, word[t + 1]
            out[t] = (lower[:-4], k + 1)
            out[t + 1] = (upper + "_INV", k)
    return out


@pytest.mark.parametrize("n", [6, 7])
def test_both_h_orders_agree(graphs, n):
    g, cells = graphs[n]
    with_h = 0
    for sigma in [*SHORT_WORDS, "--+-++-+"]:
        words = basis_words(sigma)
        others = [right_fork_first(word) for word in words]
        with_h += sum(a != b for a, b in zip(words, others))
        keys = [strip_word_web(word).canonical_key() for word in others]
        assert keys == [b.canonical_key() for b in enumerate_basis(sigma)]
        for word, other in zip(words, others):
            z, z2 = P.present_Z(word, [], g, cells)[1], P.present_Z(other, [], g, cells)[1]
            scale = max(map(abs, z.values()), default=1.0)
            assert max((abs(z.get(p, 0) - z2.get(p, 0)) for p in {*z, *z2}), default=0.0) < BOUND * scale
    assert with_h == 17
