"""Acceptance gate: the ten headline guarantees of the package.

Each test prints a single PASS/FAIL line for its criterion and then
asserts it, so `pytest -v tests/test_acceptance.py` doubles as the
acceptance report.
"""

import math
import random
import time

import numpy as np
import pytest

from a2planar import pathalg as P
from a2planar.algebra import (
    check_frels,
    check_hecke,
    check_markov,
    check_su3,
    identity,
    trace_right,
    wsum,
)
from a2planar.graph import CellSystem, build_A, pf_eigen, qnum, solve_cells
from a2planar.oracle import walk_dim
from a2planar.pathalg import PathAlgElement
from a2planar.rewrite import (
    STRATEGIES,
    enumerate_basis,
    find_redexes,
    normalize,
)
from a2planar.scalar import Laurent, alpha, delta
from a2planar.states import quotient_dim
from a2planar.web import Web, wgen_web
from random_webs import random_reducible_web


@pytest.fixture(scope="module")
def setups():
    out = {}
    for n in (4, 5, 6, 7):
        g = build_A(n)
        out[n] = (g, solve_cells(g), pf_eigen(g))
    return out


def verdict(num, ok, text):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


def rand_elem(g, i, j, seed=0):
    rng = random.Random(seed)
    return PathAlgElement(
        g, (i, j),
        {p: complex(rng.gauss(0, 1), rng.gauss(0, 1))
         for p in P.enumerate_pairs(g, i, j)},
    )


def u_indices(i, j):
    ks = list(range(max(j - 1, 0)))
    if i >= 1 and j >= 1:
        ks.append(j - 1)
    return ks


def test_01_confluence_1000_webs():
    rng = random.Random(0)
    t0 = time.perf_counter()
    tested = 0
    ok = True
    while tested < 1000:
        w = random_reducible_web(rng)
        if len(w.verts) > 12:
            continue
        tested += 1
        base = None
        for strat in STRATEGIES:
            r = normalize(w, strategy=strat, rng=random.Random(tested))
            if base is None:
                base = r
            elif r != base:
                ok = False
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(1, ok, "1000 random reducible webs, 5 rewrite orders, "
            f"identical exact normal forms ({elapsed:.1f}s)")


def test_02_lemma_two_routes():
    e = Web("---", "+++", {0: "sink", 1: "source"},
            [((0, -1), (0, 2)), ((1, -1), (0, 1)), ((2, -1), (0, 0)),
             ((1, 1), (3, -1)), ((1, 0), (4, -1)), ((1, 2), (5, -1))])
    b1 = e.compose(wgen_web("---", 0)).compose(wgen_web("---", 1))
    kinds = sorted({r[0] for r in find_redexes(b1)})
    digon_route = normalize(b1, strategy="digon-first")
    square_route = normalize(b1, strategy="square-first")
    d2 = delta() * delta()
    ok = (
        kinds == ["digon", "square"]
        and digon_route == {e: d2}
        and square_route == {e: Laurent.one() + alpha()}
        and d2 == Laurent.one() + alpha()
    )
    verdict(2, ok, "two reduction routes agree exactly; [2]^2 = 1 + [3] "
            "as Laurent polynomials")


def test_03_basis_counts():
    want = [1, 2, 6, 23, 103]
    got, oracle = [], []
    for m in range(1, 6):
        sig = "-" * m + "+" * m
        got.append(len(enumerate_basis(sig)))
        oracle.append(walk_dim(sig))
    ok = got == want == oracle
    verdict(3, ok, f"reduced-web basis counts {got} match the fusion-walk "
            f"oracle {oracle} and the expected 1,2,6,23,103")


def test_04_relation_suites():
    ok = True
    for m in range(2, 6):
        ok = ok and all(r for _, r in check_hecke(m))
        ok = ok and all(r for _, r in check_su3(m))
    for m in range(3, 7):
        ok = ok and all(r for _, r in check_frels(m))
    verdict(4, ok, "generator relations hold exactly on m <= 5 strands; "
            "cup-cap relations exactly on m <= 6")


def test_05_markov_trace():
    ok = True
    for m in range(2, 5):
        # normalized trace: tr(x) = Tr(x) / [3]^m, so tr(1) = 1 and
        # tr(W_i) = [2][3]^{-1} become the cleared identities below
        ok = ok and trace_right(identity(m)) == alpha() ** m
        for i in range(m - 1):
            ok = ok and trace_right(wsum(m, i)) == delta() * alpha() ** (m - 1)
    for k in (2, 3, 4):
        ok = ok and all(r for _, r in check_markov(k, 100, random.Random(0)))
    verdict(5, ok, "tr(1) = 1, tr(W_i) = [2][3]^{-1} exactly; Markov "
            "property on 100 random elements for k <= 4")


def test_06_quotient_dims(setups):
    sig = "---+++"
    ok = quotient_dim(sig, 5) == 5
    for n in (6, 7, 8):
        ok = ok and quotient_dim(sig, n) == 6
    # the quotient dimension equals the path-pair count on the graph
    ok = ok and P.dims(setups[5][0], 0, 3) == 5
    for n in (6, 7):
        ok = ok and P.dims(setups[n][0], 0, 3) == 6
    verdict(6, ok, "cyclotomic rank of the pairing is 5 at n = 5 and 6 for "
            "n >= 6, matching path-pair counts")


def test_07_connection(setups):
    worst = 0.0
    for n in (4, 5, 6, 7):
        g, cells, _ = setups[n]
        for parity in ("even", "odd"):
            conn = P.connection(g, cells, parity)
            worst = max(worst, conn.unitarity_residual(),
                        conn.commuting_square_residual())
    # positive controls on a fresh A(6): a 1e-6 change to one X entry
    # breaks both identities; phi scaled by 1.01 at the star once the
    # connections are built breaks only the phi-weighted commuting square
    g = build_A(6)
    cells = solve_cells(g)
    conns = [P.connection(g, cells, parity) for parity in ("even", "odd")]
    bumped = [P.Connection(g, c.parity, {**c.X, k: c.X[k] + 1e-6})
              for c in conns for k in [next(iter(c.X))]]
    bump = min(min(c.unitarity_residual(), c.commuting_square_residual()) for c in bumped)
    g.__dict__["phi"] = {**g.phi, g.star: 1.01 * g.phi[g.star]}
    scaled = [(c.unitarity_residual(), c.commuting_square_residual()) for c in conns]
    ok = (worst < 1e-10 and bump > 1e-8
          and all(u < 1e-10 and cs > 1e-3 for u, cs in scaled))
    verdict(7, ok, "connection unitarity and commuting-square residuals "
            f"< 1e-10 for n = 4..7 (worst {worst:.2e}); changed-X and "
            "scaled-phi positive controls fire")


def test_08_flatness(setups):
    g4, c4, _ = setups[4]
    g5, c5, _ = setups[5]
    worst = P.flatness_check(g4, c4, 3, 2)["max_commutator"]
    for (h, v) in [(2, 2), (3, 2)]:
        worst = max(worst, P.flatness_check(g5, c5, h, v)["max_commutator"])
    vals = dict(c5.values)
    key = sorted(vals)[0]
    vals[key] = vals[key] * 1.01
    control = P.flatness_check(g5, CellSystem(g5, vals, 0.0), 2, 2)
    ok = worst < 1e-8 and control["max_commutator"] > 1e-3
    verdict(8, ok, f"flat to {worst:.2e} on the n = 4, 5 graphs; perturbed-"
            "cell positive control fires")


def test_09_evaluation_map(setups):
    levels = [(i, j) for i in range(5) for j in range(5) if 1 <= i + j <= 4]
    worst = 0.0
    for n in (4, 5, 6, 7):
        g, cells, phi = setups[n]
        a3 = qnum(3, n)
        for (i, j) in levels:
            for k in u_indices(i, j):
                z = P.z_element(P.word_w(i, j, k), [], g, cells, i, j)
                worst = max(worst, z.dist(P.make_U(g, cells, i, j, k)))
            for l in range(1, i):
                z = P.z_element(P.word_f(i, j, l), [], g, cells, i, j)
                worst = max(worst, z.dist(P.make_e(g, phi, i, j, l).scale(a3)))
    ok = worst < 1e-10
    # trace identity: closing a random element and dividing by [3]^{i+j}
    g, cells, _ = setups[6]
    a3 = qnum(3, 6)
    for (i, j) in [(2, 1), (1, 2), (2, 2)]:
        x = rand_elem(g, i, j, seed=21)
        sigma, vec = P.present_Z(P.word_closure(i, j), [x], g, cells)
        val = vec.get((), 0.0) * a3 ** (-(i + j))
        ok = ok and sigma == "" and abs(val - P.trace(x)) < 1e-10
    # conditional expectation is a bimodule map over the smaller algebra
    for (i, j) in [(2, 1), (3, 0)]:
        x = rand_elem(g, i, j, seed=22)
        a = rand_elem(g, i - 1, j, seed=23)
        b = rand_elem(g, i - 1, j, seed=24)
        lhs = P.cond_exp(
            g, cells, P.vertical_include(g, a) * x * P.vertical_include(g, b))
        ok = ok and lhs.dist(a * P.cond_exp(g, cells, x) * b) < 1e-8
    verdict(9, ok, "strip words reproduce the generator and projection "
            f"images to {max(worst, 1e-16):.2e} (n <= 7, i + j <= 4); trace "
            "and conditional-expectation identities hold on random elements")


def test_10_hexagon_element(setups):
    g, cells, _ = setups[7]
    z = P.z_element(P.word_hexagon(), [], g, cells, 3, 0)
    paths = sorted({p for p, _ in P.enumerate_paths(g, P.level_signs(3, 0))})
    m = np.array([[z.terms.get((p, q), 0.0) for q in paths] for p in paths])
    a2, a3, a4 = qnum(2, 7), qnum(3, 7), qnum(4, 7)
    by_end = {}
    for idx, p in enumerate(paths):
        by_end.setdefault(P.path_range(g, p), []).append(idx)
    blocks = sorted(by_end.values(), key=len)
    ok = len(paths) == 4 and abs(m.imag).max() < 1e-10 and len(blocks) == 3
    if ok:
        (b1,), (b2,), b3 = blocks
        singles = sorted([m[b1, b1].real, m[b2, b2].real])
        two = m.real[np.ix_(b3, b3)]
        ok = (
            max(abs(singles[0] - 0.0), abs(singles[1] - a2)) < 1e-10
            and max(abs(x - y) for x, y in zip(
                sorted(np.diag(two)), sorted([a2**3 / a3, a4 / a3]))) < 1e-10
            and abs(abs(two[0, 1]) - math.sqrt(a2**3 * a4) / a3) < 1e-10
            and abs(two[0, 1] - two[1, 0]) < 1e-10
        )
    g5, cells5, phi5 = setups[5]
    a3 = qnum(3, 5)
    z5 = P.z_element(P.word_hexagon(), [], g5, cells5, 3, 0)
    one = P.identity_element(g5, 3, 0)
    f1 = P.make_e(g5, phi5, 3, 0, 1).scale(a3)
    f2 = P.make_e(g5, phi5, 3, 0, 2).scale(a3)
    want = one.scale(a3) - f1 - f2 + (f1 * f2).scale(a3) + (f2 * f1).scale(a3)
    ok = ok and z5.dist(want) < 1e-10
    verdict(10, ok, "six-vertex element matches the expected 4x4 matrix at "
            "n = 7 and collapses to a projection word at n = 5, to 1e-10")
