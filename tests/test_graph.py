"""Fusion graphs, Perron-Frobenius data, and cell systems."""

import json
import os

import numpy as np
import pytest

from a2planar import graph as G
from a2planar.graph import (
    CellSystem,
    FusionGraph,
    boltzmann_U,
    build_A,
    hecke_operator,
    path_space,
    pf_eigen,
    qnum,
    solve_cells,
    triangles,
    type_I_residual,
)


def test_qnum():
    assert qnum(2, 4) == pytest.approx(np.sqrt(2))
    assert qnum(3, 6) == pytest.approx(2.0)
    assert qnum(1, 7) == 1.0


def test_build_a4_structure():
    g = build_A(4)
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert len(triangles(g)) == 1
    assert g.star == (0, 0)


def test_build_a5_structure():
    g = build_A(5)
    assert len(g.vertices) == 6
    # the colour 0 -> 1 part is the four-node path (Dynkin A4 shape)
    blk = g.colour_block(0, 1)
    und = np.block(
        [[np.zeros((2, 2), int), blk], [blk.T, np.zeros((2, 2), int)]]
    )
    degs = sorted(und.sum(axis=0))
    assert degs == [1, 1, 2, 2]
    # connected
    reach = np.linalg.matrix_power(und + np.eye(4, dtype=int), 3)
    assert (reach > 0).all()


def test_guard():
    with pytest.raises(ValueError):
        build_A(3)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pf_eigenvalue(n):
    g = build_A(n)
    adj = g.adjacency().astype(float)
    lam = max(np.linalg.eigvals(adj).real)
    assert lam == pytest.approx(qnum(3, n), abs=1e-10)


def test_pf_eigen_a4_flat():
    phi = pf_eigen(build_A(4))
    assert all(abs(v - 1.0) < 1e-12 for v in phi.values())


@pytest.mark.parametrize("n", [5, 6, 7])
def test_pf_eigen_equation(n):
    g = build_A(n)
    phi = pf_eigen(g)
    assert phi[g.star] == pytest.approx(1.0)
    for v in g.vertices:
        s = sum(phi[g.range(e)] for e in g.out_edges[v])
        assert s == pytest.approx(qnum(3, n) * phi[v], abs=1e-10)
    assert all(v > 0 for v in phi.values())


def test_adjacency_normal():
    for n in (4, 5, 6, 7):
        a = build_A(n).adjacency()
        assert (a @ a.T == a.T @ a).all()


def test_colour_block_identities():
    # normality in block form: in-degrees and out-degrees per colour agree
    for n in (5, 6, 7):
        g = build_A(n)
        d01 = g.colour_block(0, 1)
        d12 = g.colour_block(1, 2)
        d20 = g.colour_block(2, 0)
        assert (d01.T @ d01 == d12 @ d12.T).all()
        assert (d12.T @ d12 == d20 @ d20.T).all()
        assert (d20.T @ d20 == d01 @ d01.T).all()


def test_triangle_counts():
    # up triangles (a+b <= n-4) plus down triangles (b >= 1, a+b <= n-4)
    for n in (4, 5, 6, 7):
        k = n - 4
        up = (k + 1) * (k + 2) // 2
        down = k * (k + 1) // 2
        assert len(triangles(build_A(n))) == up + down


def test_json_roundtrip():
    g = build_A(5)
    obj = g.to_json()
    g2 = FusionGraph.from_json(obj)
    assert len(g2.vertices) == len(g.vertices)
    assert len(g2.edges) == len(g.edges)
    assert g2.n == 5
    assert sorted(g2.colour.values()) == sorted(g.colour.values())


def test_path_space_counts():
    g = build_A(4)
    # the 3-cycle has exactly one path of each length from *
    for k in range(5):
        assert len(path_space(g, g.star, k)) == 1


# -- cell systems ----------------------------------------------------------


def _json_A(n):
    """A(n) read back from its JSON form: string vertex ids, so
    ``solve_cells`` takes the least-squares route."""
    return FusionGraph.from_json(build_A(n).to_json())


# one input per cell route: the closed form and least squares
ROUTES = pytest.mark.parametrize("make", [build_A, _json_A], ids=["build_A", "json"])


@pytest.mark.parametrize("n", range(4, 31))
def test_solve_cells_residuals(n):
    """The closed-form cells keep the absolute bound up to n = 30, where the
    frame entries [2] phi_s phi_r reach 1.6e5 and roundoff alone is about
    1e-11."""
    g = build_A(n)
    cells = solve_cells(g)
    assert cells.residual < 1e-10
    assert type_I_residual(g, cells) < 1e-10
    assert cells.residual == max(type_I_residual(g, cells), G._braid_residual(g, cells))
    assert all(v.imag == 0 and v.real > 0 for v in cells.values.values())


def test_closed_form_cells_reproducible():
    first = solve_cells(build_A(7)).values
    for _ in range(5):
        assert solve_cells(build_A(7)).values == first


def test_solve_cells_calls_least_squares_by_module_attribute(monkeypatch):
    """``solve_cells`` reaches the solver through ``graph.least_squares``, the
    name that perfbench's tracer rebinds to count calls and evaluations.
    Only graphs without weight vertices, here A(5) read from JSON, take that
    route."""
    nfev = []
    real = G.least_squares

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(G, "least_squares", counted)
    solve_cells(_json_A(5))
    assert nfev and all(k > 0 for k in nfev)


def test_triangle_free_graph_vacuous():
    g = FusionGraph(["a", "b"], {"a": 0, "b": 1}, [("a", "b")], "a", 4)
    cells = solve_cells(g)
    assert cells.values == {}
    assert cells.residual == 0.0


def test_a4_cell_modulus():
    # single triangle with all phi = 1: |W|^2 = [2]
    g = build_A(4)
    cells = solve_cells(g)
    (w,) = cells.values.values()
    assert abs(w) ** 2 == pytest.approx(qnum(2, 4), abs=1e-10)


def test_cell_cyclic_symmetry():
    g = build_A(6)
    cells = solve_cells(g)
    for (e1, e2, e3), v in cells.values.items():
        assert cells.W(e2, e3, e1) == v
        assert cells.W(e3, e1, e2) == v


@pytest.mark.parametrize("n", [5, 6, 7])
def test_hecke_relations_from_cells(n):
    g = build_A(n)
    cells = solve_cells(g)
    d = qnum(2, n)
    u = [hecke_operator(g, cells, g.star, 4, i) for i in range(3)]
    for ui in u:
        assert np.max(np.abs(ui - ui.conj().T)) < 1e-10
        assert np.max(np.abs(ui @ ui - d * ui)) < 1e-10
    assert np.max(np.abs(u[0] @ u[2] - u[2] @ u[0])) < 1e-10
    braid = (u[0] @ u[1] @ u[0] - u[0]) - (u[1] @ u[0] @ u[1] - u[1])
    assert np.max(np.abs(braid)) < 1e-10


@pytest.mark.parametrize("n", [6, 7])
def test_su3_condition_from_cells(n):
    g = build_A(n)
    cells = solve_cells(g)
    u = [hecke_operator(g, cells, g.star, 4, i) for i in range(3)]
    lhs = (u[0] - u[2] @ u[1] @ u[0] + u[1]) @ (u[1] @ u[2] @ u[1] - u[1])
    assert np.max(np.abs(lhs)) < 1e-10


def test_boltzmann_hermitian():
    g = build_A(6)
    cells = solve_cells(g)
    phi = pf_eigen(g)
    U = boltzmann_U(g, cells, phi)
    for (p, q), v in U.items():
        assert U.get((q, p), 0).conjugate() == pytest.approx(v, abs=1e-12)


def test_gauge_rephasing_invariance():
    # multiplying each edge by a phase and each cell by the product of its
    # edge phases leaves both frame residuals unchanged
    rng = np.random.default_rng(5)
    g = build_A(6)
    n = 6
    cells = solve_cells(g)
    theta = rng.uniform(0, 2 * np.pi, size=len(g.edges))
    vals = {
        t: v * np.exp(1j * (theta[t[0]] + theta[t[1]] + theta[t[2]]))
        for t, v in cells.values.items()
    }
    gauged = CellSystem(g, vals, 0.0)
    assert type_I_residual(g, gauged) < 1e-10
    d = qnum(2, n)
    u1 = hecke_operator(g, gauged, g.star, 3, 0)
    u2 = hecke_operator(g, gauged, g.star, 3, 1)
    braid = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
    assert np.max(np.abs(braid)) < 1e-10


def test_perturbed_cells_fail():
    g = build_A(5)
    cells = solve_cells(g)
    bad = dict(cells.values)
    k = next(iter(bad))
    bad[k] = bad[k] * 1.1
    assert type_I_residual(g, CellSystem(g, bad, 0.0)) > 1e-3


# -- the compiled objective and its certification -----------------------------


def _dict_route(g, tris, x):
    """The solver's residuals through CellSystem.W, boltzmann_U and
    hecke_operator, in the order of the compiled objective."""
    cells = CellSystem(g, {t: complex(x[2 * k], x[2 * k + 1]) for k, t in enumerate(tris)}, 0.0)
    d = qnum(2, g.n)
    res = []
    for u in range(len(g.edges)):
        for v in range(u, len(g.edges)):
            if g.edges[u] != g.edges[v]:
                continue
            s = sum(
                cells.W(u, a, b) * cells.W(v, a, b).conjugate()
                for a in g.out_edges[g.range(u)]
                for b in g.out_edges[g.range(a)]
                if g.range(b) == g.source(u)
            )
            want = d * g.phi[g.source(u)] * g.phi[g.range(u)] if u == v else 0.0
            res += [(s - want).real, (s - want).imag]
    u1 = hecke_operator(g, cells, g.star, 3, 0)
    u2 = hecke_operator(g, cells, g.star, 3, 1)
    braid = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
    return np.concatenate([res, braid.real.ravel(), braid.imag.ravel()])


@pytest.mark.parametrize(
    "g",
    [build_A(5), build_A(6), build_A(7), build_A(8), FusionGraph.from_json(build_A(6).to_json())],
    ids=["A5", "A6", "A7", "A8", "A6-json"],
)
def test_compiled_objective_matches_dict_route(g):
    rng = np.random.default_rng(11)
    tris = triangles(g)
    objective = G._compile_objective(g, tris)
    for _ in range(3):
        x = rng.normal(size=2 * len(tris))
        want = _dict_route(g, tris, x)
        got = objective(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


@ROUTES
def test_cells_match_recorded_moduli(make):
    """|W| per triangle is gauge invariant; the recorded values come from
    the solver that built U as a dict on every evaluation."""
    path = os.path.join(os.path.dirname(__file__), "cells_moduli_recorded.json")
    with open(path) as fh:
        recorded = json.load(fh)
    assert sorted(map(int, recorded)) == list(range(4, 10))
    for n, rows in recorded.items():
        cells = solve_cells(make(int(n)))
        assert sorted(cells.values) == [tuple(t) for t, _ in rows]
        for t, modulus in rows:
            assert abs(abs(cells.values[tuple(t)]) - modulus) < 1e-12


@ROUTES
def test_solve_cells_certified_by_slow_route(monkeypatch, make):
    monkeypatch.setattr(G, "type_I_residual", lambda g, cells: 1e-6)
    with pytest.raises(ValueError, match="slow-route"):
        solve_cells(make(5))
    monkeypatch.setattr(G, "type_I_residual", lambda g, cells: 1e-11)
    assert solve_cells(make(5)).residual == 1e-11
