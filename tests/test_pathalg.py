"""Path-pair algebras: dimensions, operators, connections, and the
strip-word evaluation map."""

import cmath
import gc
import itertools
import json
import math
import os
import random

import numpy as np
import pytest

from a2planar import pathalg as P
from a2planar.algebra import WebSum, bend, inner_product, mult
from a2planar.graph import CellSystem, build_A, pf_eigen, qnum, solve_cells
from a2planar.oracle import flip
from a2planar.pathalg import PathAlgElement
from a2planar.states import quotient_dim
from a2planar.web import cupcap_web, hexagon_web, identity_web, strip_word_web, wgen_web


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_dist_sees_a_non_finite_entry(setups, bad):
    """Positive control: a NaN or inf entry in any block, the last one
    included, makes ``dist`` inf, so no ``dist(...) < tol`` can pass it."""
    g = setups[5][0]
    one = P.identity_element(g, 1, 1)
    for w in one.blocks:
        y = P.identity_element(g, 1, 1)
        y.blocks[w][0, 0] = bad
        assert one.dist(y) == math.inf


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


def test_pair_terms_keep_a_nan(setups):
    """A NaN coefficient is kept by ``pair_terms``, by ``terms`` and by
    ``present_Z``'s chop, so ``dist`` reads inf instead of dropping it."""
    g, cells, _ = setups[5]
    pair = P.enumerate_pairs(g, 1, 1)[0]
    assert cmath.isnan(P.pair_terms(g, (1, 1), {pair: math.nan})[pair])
    x = PathAlgElement(g, (1, 1), {pair: math.nan})
    assert cmath.isnan(x.terms[pair])
    assert x.dist(PathAlgElement(g, (1, 1), {pair: 1.0})) == math.inf
    label = P.Label(g, (1, 1), {pair: complex(math.nan, 0.0)})
    z = P.z_element(P.word_insert(), [label], g, cells, 1, 1)
    assert z.dist(PathAlgElement(g, (1, 1))) == math.inf


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


def _swap_by_scan(g, conn, path, t, inverse):
    """The swap of one path as a scan of every square of ``conn.X``."""
    d = 1 if conn.parity == "even" else -1
    out = {}
    for (r1, r2, r3, r4), val in conn.X.items():
        old, new = ((r3, d), (r4, 1)), ((r1, 1), (r2, d))
        if inverse:
            old, new, val = new, old, val.conjugate()
        if (path[t], path[t + 1]) == old:
            q = path[:t] + new + path[t + 2:]
            out[q] = out.get(q, 0.0 + 0.0j) + val
    return out


def test_swap_matrices_match_scan():
    g = build_A(6)
    cells = solve_cells(g)
    hits = set()
    for i, j in ((2, 1), (3, 2)):
        signs = P.level_signs(i, j)
        old = P.path_index(g, signs)
        for t, inverse in itertools.product(range(i + j - 1), (False, True)):
            if signs[t if inverse else t + 1] != "-":
                continue
            parity = "even" if signs[t + 1 if inverse else t] == "-" else "odd"
            conn = P.connection(g, cells, parity)
            new = P.path_index(g, signs[:t] + signs[t + 1] + signs[t] + signs[t + 2:])
            S = conn.swap(signs, t, inverse)
            assert S.keys() == old.paths.keys()
            for v, ps in old.paths.items():
                want = np.zeros((len(new.paths[v]), len(ps)), dtype=complex)
                for a, p in enumerate(ps):
                    for q, c in _swap_by_scan(g, conn, p, t, inverse).items():
                        want[new.paths[v].index(q), a] += c
                assert abs(S[v] - want).max() == 0.0
                assert abs(S[v] @ S[v].conj().T - np.eye(len(ps))).max() < 1e-12
            hits.add((parity, inverse))
    assert len(hits) == 4


def _transport_by_scan(g, cells, x):
    """``horizontal_include`` on path-pair dicts: append each forward step,
    then swap it left path by path with ``_swap_by_scan``."""
    i, j = x.level
    terms = {}
    for (p1, p2), c in x.terms.items():
        for e in g.out_edges[P.path_range(g, p1)]:
            terms[(p1 + ((e, 1),), p2 + ((e, 1),))] = c
    conn = {1: P.connection(g, cells, "even"), -1: P.connection(g, cells, "odd")}
    for t in range(i + j - 1, j - 1, -1):
        out = {}
        for (p1, p2), c in terms.items():
            right = _swap_by_scan(g, conn[p2[t][1]], p2, t, False)
            for q1, a in _swap_by_scan(g, conn[p1[t][1]], p1, t, False).items():
                for q2, b in right.items():
                    out[(q1, q2)] = out.get((q1, q2), 0.0) + c * a * b.conjugate()
        terms = out
    return terms


def test_horizontal_include_matches_dict_transport():
    g = build_A(6)
    cells = solve_cells(g)
    for (i, j) in [(2, 0), (2, 1), (3, 0), (1, 2)]:
        x = rand_elem(g, i, j, seed=31)
        got = P.horizontal_include(g, cells, x).terms
        want = _transport_by_scan(g, cells, x)
        assert got
        assert max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)) < 1e-12


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


def test_flatness_matches_dense_commutators(setups):
    # flatness_check forms only some columns of each ab - ba; the full
    # products of the embedded elements are the reference
    g, cells, _ = setups[5]
    vals = dict(cells.values)
    key = sorted(vals)[0]
    vals[key] = vals[key] * 1.01
    bad = CellSystem(g, vals, 0.0)
    for cs, (h, v) in itertools.product((cells, bad), [(2, 2), (3, 2), (1, 3)]):
        ev, eh = [], []
        for pair in P.enumerate_pairs(g, v, 0):
            y = PathAlgElement(g, (v, 0), {pair: 1.0})
            for _ in range(h):
                y = P.horizontal_include(g, cs, y)
            ev.append(y)
        for pair in P.enumerate_pairs(g, 0, h):
            y = PathAlgElement(g, (0, h), {pair: 1.0})
            for _ in range(v):
                y = P.vertical_include(g, y)
            eh.append(y)
        want = max((a * b - b * a).norm() for a in ev for b in eh)
        assert P.flatness_check(g, cs, h, v)["max_commutator"] == pytest.approx(want, abs=1e-15)


def _flatness_by_units(g, cells, h, v):
    """max |ab - ba| over the matrix units a of B[v,0], carried up by
    ``horizontal_include``, and b of B[0,h], carried up by
    ``vertical_include``, with full products: the matrix-unit route that
    ``flatness_check`` reads off without building b."""
    ev, eh = [], []
    for pair in P.enumerate_pairs(g, v, 0):
        y = PathAlgElement(g, (v, 0), {pair: 1.0})
        for _ in range(h):
            y = P.horizontal_include(g, cells, y)
        ev.append(y)
    for pair in P.enumerate_pairs(g, 0, h):
        y = PathAlgElement(g, (0, h), {pair: 1.0})
        for _ in range(v):
            y = P.vertical_include(g, y)
        eh.append(y)
    return max((a * b - b * a).norm() for a in ev for b in eh)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_flatness_matches_matrix_unit_route(n):
    g = build_A(n)
    cells = solve_cells(g)
    vals = dict(cells.values)
    key = sorted(vals)[0]
    vals[key] = vals[key] * 1.01
    bad = CellSystem(g, vals, 0.0)
    for cs, h, v in itertools.product((cells, bad), range(5), range(5)):
        got = P.flatness_check(g, cs, h, v)["max_commutator"]
        assert abs(got - _flatness_by_units(g, cs, h, v)) <= 1e-14, (cs is bad, h, v)


@pytest.mark.parametrize("hmax, vmax, pairs", [(0, 0, 1), (0, 3, 5), (3, 0, 5), (1, 1, 1)])
def test_flatness_edge_levels(setups, hmax, vmax, pairs):
    g, cells, _ = setups[5]
    rep = P.flatness_check(g, cells, hmax, vmax)
    assert (rep["pairs_checked"], rep["max_commutator"]) == (pairs, 0.0)


# ---------------------------------------------------------------------------
# strip-word invariants

def apply_word(g, cells, phi, word, vec):
    # the sign string of the paths in vec, which all share it
    bot = "".join("-" if d == 1 else "+" for _, d in next(iter(vec)))
    for token in reversed(word):
        bot, signs = P._strip(token, bot, [])
        vec = P._apply_strip(g, cells, vec, *signs)
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
    x = P.identity_element(g, 0, 1)
    with pytest.raises(NotImplementedError):
        P.present_Z([("RECT", 0, 1, 1)], [x], g, cells)
    for word, labels in [
        ([("FORK_IN_INV", 0), ("CAP", 1, "-")], []),
        ([("FORK_OUT_INV", 0), ("CAP", 1, "+")], []),
        ([("CAP", 1, "x")], []),
        ([("CAP", 1, "")], []),
        ([("RECT", -1, 0, 0)], [x]),
    ]:
        with pytest.raises(ValueError):
            P.strip_boundary(word, labels)
        with pytest.raises(ValueError):
            P.present_Z(word, labels, g, cells)


def test_z_matches_recorded():
    """Cell values and present_Z outputs of 40 strip words at n = 5, 6,
    recorded from the per-kind appliers that the strip table replaced."""
    with open(os.path.join(os.path.dirname(__file__), "zmap_recorded.json")) as fh:
        recorded = json.load(fh)
    assert sorted(recorded) == ["5", "6"]
    for n, doc in recorded.items():
        g = build_A(int(n))
        cells = CellSystem(
            g, {tuple(t): complex(re, im) for t, re, im in doc["cells"]}, doc["residual"])
        labels = [PathAlgElement(g, x["level"], P.terms_from_json(x["terms"]))
                  for x in doc["labels"]]
        for row in doc["words"]:
            word = [tuple(t) for t in row["strips"]]
            want = {tuple(tuple(s) for s in p): complex(re, im) for p, re, im in row["vec"]}
            sigma, vec = P.present_Z(word, labels, g, cells)
            assert sigma == row["sigma"]
            assert vec.keys() == want.keys()
            assert vdist(vec, want) < 1e-12


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

    W = build(webs, mult)
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

def test_hexagon_web_is_the_hexagon_word():
    """``web.hexagon_web`` and ``word_hexagon`` are one strip word."""
    assert hexagon_web() == bend(strip_word_web(P.word_hexagon()), 3)


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
    obj = P.terms_to_json(x.terms)
    for row in obj:
        assert set(row) == {"p1", "p2", "re", "im"}
    y = PathAlgElement(g, (2, 1), P.terms_from_json(obj))
    assert x.dist(y) < 1e-15


def test_pair_terms_checks_and_chops(setups):
    """``pair_terms`` keeps the coefficients above 1e-14, as complex numbers,
    and refuses a pair off the level or with two end vertices; an element
    holds exactly those terms, and ``z_terms`` on a ``Label`` gives the
    terms of ``z_element`` on the element."""
    g, cells, _ = setups[5]
    pairs = P.enumerate_pairs(g, 1, 1)
    terms = {p: 1e-14 if k % 2 else 0.5 + k * 1j for k, p in enumerate(pairs)}
    got = P.pair_terms(g, (1, 1), terms)
    assert got == {p: c for p, c in terms.items() if abs(c) > 1e-14}
    assert all(type(c) is complex for c in got.values())
    assert dict(PathAlgElement(g, (1, 1), terms).terms) == got
    ends = list(P.path_index(g, P.level_signs(1, 1)).paths.values())
    p, q = ends[0][0], ends[1][0]
    with pytest.raises(ValueError, match="two end vertices"):
        P.pair_terms(g, (1, 1), {(p, q): 1.0})
    with pytest.raises(ValueError, match="not at level"):
        P.pair_terms(g, (2, 1), {pairs[0]: 1.0})
    x = PathAlgElement(g, (1, 1), terms)
    label = P.Label(g, (1, 1), got)
    assert (P.terms_to_json(P.z_terms(P.word_insert(), [label], g, cells, 1, 1))
            == P.terms_to_json(P.z_element(P.word_insert(), [x], g, cells, 1, 1).terms))


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


@pytest.mark.parametrize("route", ["build_A", "json"])
def test_connection_residuals_match_recorded(route):
    """On A(4..12) and JSON A(4..9), both parities: unitarity bit for bit,
    the commuting square within 1e-15, as its sum may run in another order.
    Recorded by the per-certificate loops that ``gram_residual`` replaced."""
    from a2planar.graph import FusionGraph

    path = os.path.join(os.path.dirname(__file__), "residuals_recorded.json")
    with open(path) as fh:
        recorded = json.load(fh)
    unitarity = recorded["unitarity"][route]
    commuting = recorded["commuting_square"][route]
    assert sorted(map(int, unitarity)) == list(range(4, 13 if route == "build_A" else 10))
    for n in unitarity:
        g = build_A(int(n))
        if route == "json":
            g = FusionGraph.from_json(g.to_json())
        cells = solve_cells(g)
        for parity in ("even", "odd"):
            conn = P.connection(g, cells, parity)
            assert conn.unitarity_residual().hex() == unitarity[n][parity], (n, parity)
            want = float.fromhex(commuting[n][parity])
            assert abs(conn.commuting_square_residual() - want) <= 1e-15, (n, parity)
