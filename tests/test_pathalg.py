"""Path-pair algebras: dimensions, operators, connections, and the
strip-word evaluation map."""

import gc
import itertools
import math
import random

import numpy as np
import pytest

from a2planar import pathalg as P
from a2planar.algebra import WebSum, inner_product, quotient_dim
from a2planar.graph import CellSystem, build_A, pf_eigen, qnum, solve_cells
from a2planar.pathalg import PathAlgElement
from a2planar.web import cupcap_web, flip, hexagon_web, identity_web, wgen_web


@pytest.fixture(scope="module")
def setups():
    out = {}
    for n in (4, 5, 6, 7):
        g = build_A(n)
        out[n] = (g, solve_cells(g), pf_eigen(g))
    return out


def rand_elem(g, i, j, seed=0, density=1.0):
    rng = random.Random(seed)
    pairs = P.enumerate_pairs(g, i, j)
    keep = pairs if density >= 1.0 else pairs[: max(1, int(len(pairs) * density))]
    return PathAlgElement(
        g, (i, j),
        {p: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for p in keep},
    )


# ---------------------------------------------------------------------------
# dimensions

def test_dims_trivial(setups):
    for n in (4, 5, 6, 7):
        g = setups[n][0]
        assert P.dims(g, 0, 0) == 1


def test_dims_a4_all_one(setups):
    g = setups[4][0]
    for i in range(4):
        for j in range(4 - i):
            assert P.dims(g, i, j) == 1


def test_dims_a5_values(setups):
    g = setups[5][0]
    assert [P.dims(g, 0, j) for j in range(5)] == [1, 1, 2, 5, 13]


def test_dims_antidiagonal(setups):
    # the dimension depends only on the total level i + j
    for n in (5, 6, 7):
        g = setups[n][0]
        for total in range(1, 5):
            vals = {P.dims(g, i, total - i) for i in range(total + 1)}
            assert len(vals) == 1


def test_dims_negative():
    g = build_A(5)
    with pytest.raises(ValueError):
        P.dims(g, -1, 0)


# ---------------------------------------------------------------------------
# trace

def test_trace_identity(setups):
    for n in (4, 5, 6, 7):
        g = setups[n][0]
        for (i, j) in [(0, 0), (1, 1), (2, 1), (0, 3)]:
            one = P.identity_element(g, i, j)
            assert P.trace(one) == pytest.approx(1.0, abs=1e-12)


def test_trace_offdiagonal_vanishes(setups):
    g = setups[5][0]
    pairs = P.enumerate_pairs(g, 1, 1)
    for (p1, p2) in pairs:
        if p1 != p2:
            x = PathAlgElement(g, (1, 1), {(p1, p2): 1.0 + 0j})
            assert abs(P.trace(x)) == 0.0


def test_trace_tracial(setups):
    g = setups[5][0]
    a = rand_elem(g, 2, 1, seed=3)
    b = rand_elem(g, 2, 1, seed=4)
    assert abs(P.trace(a * b) - P.trace(b * a)) < 1e-10


# ---------------------------------------------------------------------------
# Hecke operators

def u_indices(i, j):
    ks = list(range(max(j - 1, 0)))
    if i >= 1 and j >= 1:
        ks.append(j - 1)
    return ks


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_u_quadratic_selfadjoint(setups, n):
    g, cells, _ = setups[n]
    d = qnum(2, n)
    for (i, j) in [(0, 2), (1, 2), (2, 2), (1, 3), (0, 4)]:
        for k in u_indices(i, j):
            U = P.make_U(g, cells, i, j, k)
            assert (U * U - U.scale(d)).norm() < 1e-10
            assert U.dist(U.star()) < 1e-10


@pytest.mark.parametrize("n", [5, 6, 7])
def test_u_hecke_relations(setups, n):
    # H2 for position-disjoint pairs, H3 for position-adjacent ones
    g, cells, _ = setups[n]
    ops = {k: P.make_U(g, cells, 2, 3, k) for k in u_indices(2, 3)}
    # position order: U_{-1} at (1,2), U_0 at (2,3), corner U_{-2} at (3,4)
    chain = [ops[1], ops[0], ops[2]]
    for a, b in [(chain[0], chain[2])]:
        assert (a * b - b * a).norm() < 1e-10
    for a, b in zip(chain, chain[1:]):
        lhs = a * b * a - a
        rhs = b * a * b - b
        assert lhs.dist(rhs) < 1e-10


@pytest.mark.parametrize("n", [5, 6, 7])
def test_u_su3_condition(setups, n):
    # (U_a - U_c U_b U_a + U_b)(U_b U_c U_b - U_b) = 0 for a chain of
    # three positionally consecutive operators
    g, cells, _ = setups[n]
    ops = {k: P.make_U(g, cells, 2, 3, k) for k in u_indices(2, 3)}
    ua, ub, uc = ops[1], ops[0], ops[2]
    lhs = (ua - uc * ub * ua + ub) * (ub * uc * ub - ub)
    assert lhs.norm() < 1e-10


def test_u_embeddings(setups):
    g, cells, _ = setups[5]
    # vertical embedding keeps the operator, corner included
    for (i, j, k) in [(1, 2, 0), (1, 2, 1), (2, 2, 0)]:
        assert P.vertical_include(g, P.make_U(g, cells, i, j, k)).dist(
            P.make_U(g, cells, i + 1, j, k)
        ) < 1e-12
    # horizontal embedding shifts the label by one (regular operators;
    # the embedded corner picks up a braiding factor and is not of
    # plain coupled-pair form in the new shape)
    for (i, j, k) in [(0, 2, 0), (0, 3, 0), (0, 3, 1), (1, 2, 0), (2, 2, 0)]:
        emb = P.horizontal_include(g, cells, P.make_U(g, cells, i, j, k))
        assert emb.dist(P.make_U(g, cells, i, j + 1, k + 1)) < 1e-10


def test_u_index_errors(setups):
    g, cells, _ = setups[5]
    with pytest.raises(ValueError):
        P.make_U(g, cells, 1, 2, 2)
    with pytest.raises(ValueError):
        P.make_U(g, cells, 0, 2, 1)  # corner needs a vertical step


# ---------------------------------------------------------------------------
# Jones projections

@pytest.mark.parametrize("n", [5, 6, 7])
def test_e_projection(setups, n):
    g, _, phi = setups[n]
    for (i, j) in [(2, 0), (3, 0), (2, 2), (3, 1), (4, 0)]:
        for l in range(1, i):
            e = P.make_e(g, phi, i, j, l)
            assert (e * e).dist(e) < 1e-12
            assert e.dist(e.star()) < 1e-12


def test_e_temperley_lieb(setups):
    for n in (5, 6, 7):
        g, _, phi = setups[n]
        a3 = qnum(3, n)
        e1 = P.make_e(g, phi, 3, 0, 1)
        e2 = P.make_e(g, phi, 3, 0, 2)
        assert (e1 * e2 * e1).dist(e1.scale(1 / a3**2)) < 1e-12
        assert (e2 * e1 * e2).dist(e2.scale(1 / a3**2)) < 1e-12


def test_e_commutes_with_lower_level(setups):
    # e_l commutes with anything supported on vertical steps < l
    g, _, phi = setups[5]
    e2 = P.make_e(g, phi, 3, 1, 2)
    x = rand_elem(g, 1, 1, seed=5)
    for _ in range(2):
        x = P.vertical_include(g, x)
    assert (e2 * x - x * e2).norm() < 1e-10


def test_e_trace(setups):
    # Markov: tr(e_l) = 1/[3]^2
    for n in (5, 6, 7):
        g, _, phi = setups[n]
        a3 = qnum(3, n)
        for (i, j, l) in [(2, 0, 1), (3, 1, 2)]:
            e = P.make_e(g, phi, i, j, l)
            assert abs(P.trace(e) - 1 / a3**2) < 1e-12


def test_e_index_errors(setups):
    g, _, phi = setups[5]
    with pytest.raises(ValueError):
        P.make_e(g, phi, 2, 0, 2)


# ---------------------------------------------------------------------------
# connections

@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_connection_unitarity(setups, n, parity):
    g, cells, _ = setups[n]
    conn = P.connection(g, cells, parity)
    assert conn.unitarity_residual() < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_commuting_square(setups, n, parity):
    g, cells, _ = setups[n]
    conn = P.connection(g, cells, parity)
    assert conn.commuting_square_residual() < 1e-10


def test_odd_connection_formula(setups):
    # odd-parity value = phi ratio times conjugate of the even one with
    # top/bottom and the two vertical edges exchanged
    g, cells, phi = setups[5]
    even = P.connection(g, cells, "even")
    odd = P.connection(g, cells, "odd")
    assert odd.X
    for (r1, r2, r3, r4), val in odd.X.items():
        ratio = math.sqrt(
            phi[g.source(r3)] * phi[g.range(r2)]
            / (phi[g.range(r3)] * phi[g.source(r2)])
        )
        ref = even.X.get((r4, r2, r3, r1), 0.0 + 0.0j)
        assert abs(val - ratio * ref.conjugate()) < 1e-12


def test_connection_parity_guard(setups):
    g, cells, _ = setups[4]
    with pytest.raises(ValueError):
        P.connection(g, cells, "sideways")


# ---------------------------------------------------------------------------
# basis change

def test_basis_change_round_trip(setups):
    g, cells, _ = setups[5]
    x = rand_elem(g, 2, 1, seed=7)
    y = P.basis_change(g, cells, x, 0, inverse=True)
    assert P.basis_change(g, cells, y, 0).dist(x) < 1e-10


def test_basis_change_trace_preserving(setups):
    g, cells, _ = setups[5]
    x = rand_elem(g, 2, 1, seed=8)
    y = P.basis_change(g, cells, x, 0, inverse=True)
    assert abs(P.trace(x) - P.trace(y)) < 1e-10


def test_basis_change_multiplicative(setups):
    g, cells, _ = setups[5]
    a = rand_elem(g, 2, 1, seed=9)
    b = rand_elem(g, 2, 1, seed=10)

    def move(z):
        return P.basis_change(g, cells, z, 0, inverse=True)

    assert move(a * b).dist(move(a) * move(b)) < 1e-9


def test_u_form_invariant(setups):
    # re-presenting the level through the connection leaves U_{-k} in
    # its defining coupled-pair form, with the step signs re-shuffled,
    # whenever the coupled pair is disjoint from the moved steps
    from a2planar.graph import boltzmann_U

    g, cells, phi = setups[5]
    U = boltzmann_U(g, cells, phi)
    # level (1,3): swap steps (2,3); U_{-1} couples steps (0,1)
    x = P.make_U(g, cells, 1, 3, 1)
    y = P.basis_change(g, cells, x, 2, inverse=True)
    assert y.dist(P._u_formula(g, U, "", "--", (1, 3))) < 1e-10
    # level (2,3): swap steps (2,3); U_{-1} couples steps (0,1)
    x = P.make_U(g, cells, 2, 3, 1)
    y = P.basis_change(g, cells, x, 2, inverse=True)
    assert y.dist(P._u_formula(g, U, "", "--+", (2, 3))) < 1e-10


# ---------------------------------------------------------------------------
# flatness

def test_flatness_a4(setups):
    g, cells, _ = setups[4]
    rep = P.flatness_check(g, cells, 3, 2)
    assert rep["max_commutator"] < 1e-8


def test_flatness_a5(setups):
    g, cells, _ = setups[5]
    for (h, v) in [(2, 2), (3, 2)]:
        rep = P.flatness_check(g, cells, h, v)
        assert rep["max_commutator"] < 1e-8


def test_flatness_positive_control(setups):
    g, cells, _ = setups[5]
    vals = dict(cells.values)
    key = sorted(vals)[0]
    vals[key] = vals[key] * 1.01
    bad = CellSystem(g, vals, 0.0)
    rep = P.flatness_check(g, bad, 2, 2)
    assert rep["max_commutator"] > 1e-3


# ---------------------------------------------------------------------------
# strip-word invariants

def apply_word(g, cells, phi, word, vec):
    for token in reversed(word):
        kind = token[0]
        if kind == "CUP":
            vec = P._apply_cup(g, phi, vec, token[1])
        elif kind == "CAP":
            vec = P._apply_cap(g, phi, vec, token[1], token[2])
        else:
            vec = P._apply_fork(g, cells, phi, vec, token[1], kind)
    return {k: v for k, v in vec.items() if abs(v) > 1e-13}


def vdist(a, b):
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b)), default=0.0)


def words_agree(g, cells, phi, w1, w2, signs, scale=1.0):
    worst = 0.0
    for p, _ in P.enumerate_paths(g, signs):
        out1 = apply_word(g, cells, phi, w1, {p: 1.0 + 0j})
        out2 = apply_word(g, cells, phi, w2, {p: scale + 0j})
        worst = max(worst, vdist(out1, out2))
    return worst


@pytest.mark.parametrize("n", [5, 6])
def test_cupcap_simplifications(setups, n):
    g, cells, phi = setups[n]
    for pre in ("", "-", "+-"):
        o = len(pre)
        for s in "-+":
            z1 = words_agree(
                g, cells, phi,
                [("CUP", 2 + o), ("CAP", 1 + o, s)], [], pre + s)
            z2 = words_agree(
                g, cells, phi,
                [("CUP", 1 + o), ("CAP", 2 + o, flip(s))], [], pre + s)
            assert max(z1, z2) < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_closed_loop(setups, n):
    g, cells, phi = setups[n]
    for s in "-+":
        out = apply_word(g, cells, phi, [("CUP", 1), ("CAP", 1, s)], {(): 1.0 + 0j})
        assert abs(out[()] - qnum(3, n)) < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_digon(setups, n):
    g, cells, phi = setups[n]
    for fam, co, sg in [("IN", "OUT", "-"), ("OUT", "IN", "+")]:
        word = [(f"FORK_{fam}", 1), (f"FORK_{co}_INV", 1)]
        worst = 0.0
        for p, _ in P.enumerate_paths(g, sg):
            out = apply_word(g, cells, phi, word, {p: 1.0 + 0j})
            worst = max(worst, vdist(out, {p: qnum(2, n) + 0j}))
        assert worst < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_fork_isotopies(setups, n):
    # the five bent-leg / slide moves per vertex family
    g, cells, phi = setups[n]
    cases = []
    for pre in ("", "-"):
        o = len(pre)
        cases += [
            ([("FORK_IN", 1 + o), ("CAP", 2 + o, "+")], [("FORK_IN_INV", 1 + o)], pre + "+"),
            ([("FORK_IN", 2 + o), ("CAP", 1 + o, "-")], [("FORK_IN_INV", 1 + o)], pre + "+"),
            ([("CUP", 2 + o), ("FORK_IN_INV", 1 + o)], [("FORK_IN", 1 + o)], pre + "++"),
            ([("CUP", 1 + o), ("FORK_IN_INV", 2 + o)], [("FORK_IN", 1 + o)], pre + "++"),
            ([("CUP", 1 + o), ("FORK_IN", 2 + o)], [("CUP", 1 + o), ("FORK_IN", 1 + o)], pre + "+++"),
            ([("FORK_OUT", 1 + o), ("CAP", 2 + o, "-")], [("FORK_OUT_INV", 1 + o)], pre + "-"),
            ([("FORK_OUT", 2 + o), ("CAP", 1 + o, "+")], [("FORK_OUT_INV", 1 + o)], pre + "-"),
            ([("CUP", 2 + o), ("FORK_OUT_INV", 1 + o)], [("FORK_OUT", 1 + o)], pre + "--"),
            ([("CUP", 1 + o), ("FORK_OUT_INV", 2 + o)], [("FORK_OUT", 1 + o)], pre + "--"),
            ([("CUP", 1 + o), ("FORK_OUT", 2 + o)], [("CUP", 1 + o), ("FORK_OUT", 1 + o)], pre + "---"),
        ]
    for w1, w2, signs in cases:
        assert words_agree(g, cells, phi, w1, w2, signs) < 1e-12


def test_strip_word_validation(setups):
    g, cells, _ = setups[5]
    with pytest.raises(ValueError):
        P.present_Z([("CUP", 1)], [], g, cells)
    with pytest.raises(ValueError):
        P.present_Z([("FORK_IN", 1), ("CAP", 1, "-")], [], g, cells)
    with pytest.raises(NotImplementedError):
        x = P.identity_element(g, 0, 1)
        P.present_Z([("RECT", 0, 1, 1)], [x], g, cells)


# ---------------------------------------------------------------------------
# the evaluation map Z

LEVELS = [(0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0), (2, 2), (1, 3)]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_z_identity_word(setups, n):
    g, cells, _ = setups[n]
    for (i, j) in LEVELS:
        z = P.z_element(P.word_identity(i, j), [], g, cells, i, j)
        assert z.dist(P.identity_element(g, i, j)) < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_z_hecke_words(setups, n):
    g, cells, _ = setups[n]
    for (i, j) in LEVELS:
        for k in u_indices(i, j):
            z = P.z_element(P.word_w(i, j, k), [], g, cells, i, j)
            assert z.dist(P.make_U(g, cells, i, j, k)) < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_z_cupcap_words(setups, n):
    g, cells, phi = setups[n]
    a3 = qnum(3, n)
    for (i, j) in LEVELS:
        for l in range(1, i):
            z = P.z_element(P.word_f(i, j, l), [], g, cells, i, j)
            assert z.dist(P.make_e(g, phi, i, j, l).scale(a3)) < 1e-10


@pytest.mark.parametrize("n", [5, 6])
def test_z_insertion(setups, n):
    g, cells, _ = setups[n]
    for (i, j) in [(1, 1), (2, 1), (0, 2)]:
        x = rand_elem(g, i, j, seed=11)
        z = P.z_element(P.word_insert(), [x], g, cells, i, j)
        assert z.dist(x) < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_z_closure_is_trace(setups, n):
    g, cells, _ = setups[n]
    a3 = qnum(3, n)
    for (i, j) in [(2, 1), (1, 2), (2, 2), (3, 0)]:
        x = rand_elem(g, i, j, seed=12)
        sigma, vec = P.present_Z(P.word_closure(i, j), [x], g, cells)
        assert sigma == ""
        val = vec.get((), 0.0) * a3 ** (-(i + j))
        assert abs(val - P.trace(x)) < 1e-10


@pytest.mark.parametrize("n", [5, 6])
def test_z_inclusion_word(setups, n):
    g, cells, _ = setups[n]
    for (i, j) in [(1, 1), (2, 1), (0, 2)]:
        x = rand_elem(g, i, j, seed=13)
        z = P.z_element(P.word_inclusion(i, j), [x], g, cells, i + 1, j)
        assert z.dist(P.vertical_include(g, x)) < 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_conditional_expectation(setups, n):
    g, cells, _ = setups[n]
    for (i, j) in [(2, 1), (3, 0), (1, 2)]:
        x = rand_elem(g, i, j, seed=14)
        E = P.cond_exp(g, cells, x)
        assert E.level == (i - 1, j)
        # unit, trace compatibility, bimodule property
        one = P.identity_element(g, i, j)
        assert P.cond_exp(g, cells, one).dist(P.identity_element(g, i - 1, j)) < 1e-10
        assert abs(P.trace(E) - P.trace(x)) < 1e-10
        a = rand_elem(g, i - 1, j, seed=15)
        b = rand_elem(g, i - 1, j, seed=16)
        lhs = P.cond_exp(
            g, cells,
            P.vertical_include(g, a) * x * P.vertical_include(g, b),
        )
        assert lhs.dist(a * E * b) < 1e-9


# ---------------------------------------------------------------------------
# the quotient diagram algebra is the path-pair algebra

def _generators(g, cells, phi, n, i, j):
    w = P.level_signs(i, j)
    a3 = qnum(3, n)
    webs = [WebSum.from_web(identity_web(w))]
    elems = [P.identity_element(g, i, j)]
    for t in range(j):
        if t == j - 1 and i == 0:
            continue
        k = j - 2 - t if t <= j - 2 else j - 1
        webs.append(WebSum.from_web(wgen_web(w, t)))
        elems.append(P.make_U(g, cells, i, j, k))
    for l in range(1, i):
        webs.append(WebSum.from_web(cupcap_web(w, j + l - 1)))
        elems.append(P.make_e(g, phi, i, j, l).scale(a3))
    if (i, j) == (3, 0):
        webs.append(WebSum.from_web(hexagon_web()))
        elems.append(P.z_element(P.word_hexagon(), [], g, cells, 3, 0))
    return webs, elems


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("level", [(1, 1), (2, 0), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)])
def test_diagram_path_isomorphism(setups, n, level):
    # Gram matrices of matching word families agree entrywise, and their
    # common rank is the path-pair dimension: the evaluation map is a
    # trace-preserving isomorphism onto its image.
    g, cells, phi = setups[n]
    i, j = level
    webs, elems = _generators(g, cells, phi, n, i, j)
    idx = range(1, len(webs))
    words = [(0,)] + [w for r in (1, 2, 3) for w in itertools.product(idx, repeat=r)]

    def build(gens, combine):
        out = []
        for word in words:
            x = gens[word[0]]
            for q in word[1:]:
                x = combine(x, gens[q])
            out.append(x)
        return out

    W = build(webs, lambda a, b: a * b)
    B = build(elems, lambda a, b: a * b)
    gram_w = np.array(
        [[inner_product(a, b, n).to_complex() for b in W] for a in W]
    )
    gram_b = np.array([[P.trace(b.star() * a) for b in B] for a in B])
    assert abs(gram_w - gram_b).max() < 1e-10
    rank = np.linalg.matrix_rank(gram_w, tol=1e-8)
    assert rank == P.dims(g, i, j) == quotient_dim(P.sigma_word(i, j), n)


# ---------------------------------------------------------------------------
# the six-vertex element

def test_hexagon_matrix_n7(setups):
    g, cells, _ = setups[7]
    z = P.z_element(P.word_hexagon(), [], g, cells, 3, 0)
    paths = sorted({p for p, _ in P.enumerate_paths(g, P.level_signs(3, 0))})
    assert len(paths) == 4
    m = np.array([[z.terms.get((p, q), 0.0) for q in paths] for p in paths])
    assert abs(m.imag).max() < 1e-10
    a2, a3, a4 = qnum(2, 7), qnum(3, 7), qnum(4, 7)
    by_end = {}
    for idx, p in enumerate(paths):
        by_end.setdefault(P.path_range(g, p), []).append(idx)
    blocks = sorted(by_end.values(), key=len)
    (b1,), (b2,), b3 = blocks
    single = sorted([m[b1, b1].real, m[b2, b2].real])
    assert single == pytest.approx([0.0, a2], abs=1e-10)
    two = m.real[np.ix_(b3, b3)]
    assert sorted(np.diag(two)) == pytest.approx(
        sorted([a2**3 / a3, a4 / a3]), abs=1e-10)
    assert abs(two[0, 1]) == pytest.approx(math.sqrt(a2**3 * a4) / a3, abs=1e-10)
    assert abs(two[0, 1] - two[1, 0]) < 1e-10


def test_hexagon_collapse_n5(setups):
    # at the smallest root the six-vertex element is a word in the
    # cup-cap diagram images f_l = [3] e_l
    g, cells, phi = setups[5]
    a3 = qnum(3, 5)
    z = P.z_element(P.word_hexagon(), [], g, cells, 3, 0)
    one = P.identity_element(g, 3, 0)
    f1 = P.make_e(g, phi, 3, 0, 1).scale(a3)
    f2 = P.make_e(g, phi, 3, 0, 2).scale(a3)
    want = one.scale(a3) - f1 - f2 + (f1 * f2).scale(a3) + (f2 * f1).scale(a3)
    assert z.dist(want) < 1e-10


def test_hexagon_no_collapse_n6(setups):
    g, cells, phi = setups[6]
    a3 = qnum(3, 6)
    z = P.z_element(P.word_hexagon(), [], g, cells, 3, 0)
    one = P.identity_element(g, 3, 0)
    f1 = P.make_e(g, phi, 3, 0, 1).scale(a3)
    f2 = P.make_e(g, phi, 3, 0, 2).scale(a3)
    rel = one.scale(a3) - f1 - f2 + (f1 * f2).scale(a3) + (f2 * f1).scale(a3)
    assert z.dist(rel) > 1e-3


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip(setups):
    g, _, _ = setups[5]
    x = rand_elem(g, 2, 1, seed=17)
    obj = x.to_json()
    for row in obj:
        assert set(row) == {"p1", "p2", "re", "im"}
    y = PathAlgElement.from_json(g, (2, 1), obj)
    assert x.dist(y) < 1e-15


# ---------------------------------------------------------------------------
# derived quantities cached on their objects

def test_derived_quantities_cached_on_objects(setups):
    g, cells, _ = setups[5]
    assert g.phi is g.phi
    assert cells.U is cells.U
    assert P.connection(g, cells, "even") is P.connection(g, cells, "even")
    assert P.connection(g, cells, "odd") is P.connection(g, cells, "odd")
    assert P.connection(g, cells, "odd") is not P.connection(g, cells, "even")


def test_phi_survives_graph_turnover():
    # a new graph must never pick up the weights of a freed one, whatever
    # address it is given
    for _ in range(20):
        for n in (8, 6, 7, 5):
            g = build_A(n)
            assert abs(P.trace(P.identity_element(g, 2, 1)) - 1) < 1e-10
            fresh = pf_eigen(g)
            assert max(abs(g.phi[v] - fresh[v]) for v in g.vertices) < 1e-12
            del g
            gc.collect()
