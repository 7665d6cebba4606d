"""Fusion graphs, Perron-Frobenius data, and cell systems."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from a2planar import graph as G
from a2planar.graph import (
    CellSystem,
    FusionGraph,
    boltzmann_U,
    build_A,
    enumerate_paths,
    hecke_operator,
    pf_eigen,
    qnum,
    solve_cells,
    triangles,
    type_I_residual,
)


def adjacency(g):
    """The adjacency matrix of ``g``, in vertex order."""
    a = np.zeros((len(g.vertices), len(g.vertices)), dtype=int)
    for u, v in g.edges:
        a[g._vindex[u], g._vindex[v]] += 1
    return a


def colour_block(g, c1, c2):
    """Adjacency restricted to edges from colour ``c1`` to colour ``c2``."""
    rows = [v for v in g.vertices if g.colour[v] == c1]
    cols = [v for v in g.vertices if g.colour[v] == c2]
    return adjacency(g)[np.ix_([g._vindex[v] for v in rows], [g._vindex[v] for v in cols])]


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
    blk = colour_block(g, 0, 1)
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
    adj = adjacency(g).astype(float)
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


@pytest.mark.parametrize("n", range(4, 13))
def test_json_pf_eigen_matches_closed_form(n):
    """A graph read from JSON gets phi by power iteration; on A(n) it equals
    the closed form of ``build_A(n)`` to a relative 1e-12."""
    closed = pf_eigen(build_A(n))
    phi = pf_eigen(_json_A(n))
    assert max(abs(phi[G._vid(v)] - w) / w for v, w in closed.items()) < 1e-12


def test_power_iteration_cap_is_a_rejection(monkeypatch):
    """Stopping at the iteration cap certifies nothing: the bracket is empty
    (A(9) needs 82 iterations)."""
    lo, hi, _ = G._perron(_json_A(9))
    assert qnum(3, 9) - 1e-9 <= lo <= hi <= qnum(3, 9) + 1e-9
    monkeypatch.setattr(G, "_PERRON_CAP", 81)
    lo, hi, _ = G._perron(_json_A(9))
    assert lo > hi
    with pytest.raises(ValueError, match=r"not \[3\]"):
        pf_eigen(_json_A(9))


@pytest.mark.parametrize("n", range(4, 31))
def test_closed_form_phi_matches_eigensolve(n):
    """The reference for the closed form: the Perron vector of a dense
    eigensolve of A^T, normalized at star, agrees to the absolute 1e-9 up
    to n = 30 (at most 4.2e-10 there, on one or two BLAS threads; at
    n = 35 on two threads the gap is 1.1e-9)."""
    g = build_A(n)
    w, vecs = np.linalg.eig(adjacency(g).T.astype(float))
    vec = vecs[:, int(np.argmax(w.real))].real
    vec = vec / vec[g._vindex[g.star]]
    phi = pf_eigen(g)
    assert max(abs(vec[g._vindex[v]] - phi[v]) for v in g.vertices) < 1e-9


def test_closed_form_phi_certified_without_numpy():
    """Up to n = 60 the closed form passes its certificate in a process
    that never imports numpy."""
    code = ("import sys\n"
            "from a2planar.graph import build_A, pf_eigen\n"
            "for n in range(4, 61):\n"
            "    pf_eigen(build_A(n))\n"
            "assert 'numpy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(G.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def _bump_largest(monkeypatch, bump):
    """Make the closed form of A(n) give ``bump(x)`` in place of its
    largest entry x."""
    closed = G._phi_A

    def phi_A(g):
        vec = closed(g)
        k = vec.index(max(vec))
        vec[k] = bump(vec[k])
        return vec

    monkeypatch.setattr(G, "_phi_A", phi_A)


def test_perturbed_closed_form_phi_fails_certificate(monkeypatch):
    """Positive controls of the certificate at n = 12, where the largest
    entry is about 19: a relative 1e-6 moves its Collatz-Wielandt ratio out
    of the bracket, and an absolute 1e-9 leaves the bracket within 1e-9 of
    [3] but puts the eigen-residual near [3] 1e-9."""
    _bump_largest(monkeypatch, lambda x: x * (1 + 1e-6))
    with pytest.raises(G.UncertifiedPhi, match=r"not \[3\]") as exc:
        pf_eigen(build_A(12))
    assert 1e-9 < exc.value.residual < 1e-5
    monkeypatch.undo()
    _bump_largest(monkeypatch, lambda x: x + 1e-9)
    g = build_A(12)
    lo, hi = G._bracket(g, G._phi_A(g))
    assert qnum(3, 12) - 1e-9 <= lo <= hi <= qnum(3, 12) + 1e-9
    with pytest.raises(G.UncertifiedPhi, match="eigen-residual") as exc:
        pf_eigen(g)
    assert 1e-10 < exc.value.residual < 1e-8


def test_adjacency_normal():
    for n in (4, 5, 6, 7):
        a = adjacency(build_A(n))
        assert (a @ a.T == a.T @ a).all()


def test_colour_block_identities():
    # normality in block form: in-degrees and out-degrees per colour agree
    for n in (5, 6, 7):
        g = build_A(n)
        d01 = colour_block(g, 0, 1)
        d12 = colour_block(g, 1, 2)
        d20 = colour_block(g, 2, 0)
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
        assert len(enumerate_paths(g, "-" * k)) == 1


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


def _counted(fn, calls):
    def call(x):
        calls.append(1)
        return fn(x)
    return call


def _rows(a):
    """The sparse rows ``{column: value}`` of a dense matrix."""
    return [{k: v for k, v in enumerate(row) if v} for row in a.tolist()]


def _dense(rows, ncols):
    """The dense matrix of sparse rows."""
    a = np.zeros((len(rows), ncols))
    for r, row in enumerate(rows):
        for k, v in row.items():
            a[r, k] = v
    return a


def test_least_squares_linear_problem():
    """On a full-rank linear problem the minimum is the lstsq solution;
    ``nfev`` counts the objective and Jacobian evaluations together."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 8))
    b = a @ rng.normal(size=8)
    fcalls, jcalls = [], []
    sol = G.least_squares(_counted(lambda x: (a @ x - b).tolist(), fcalls), [0.0] * 8,
                          jac=_counted(lambda x: _rows(a), jcalls))
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.max(np.abs(np.array(sol.x) - want)) < 1e-10
    assert sol.nfev == len(fcalls) + len(jcalls) and jcalls


def test_least_squares_inconsistent_linear_problem():
    """With the exact Jacobian, a minimum with nonzero residual is reached
    to 1e-10 as well (a forward-difference Jacobian, accurate to about
    1e-8, moved it by 2.6e-9)."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 8))
    b = a @ rng.normal(size=8) + rng.normal(size=30)
    sol = G.least_squares(lambda x: (a @ x - b).tolist(), [0.0] * 8, jac=lambda x: _rows(a))
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(a @ want - b) > 1
    assert np.max(np.abs(np.array(sol.x) - want)) < 1e-10


def test_least_squares_stops_at_100_jacobians():
    """exp(x) has no minimum: every step is accepted and lowers the residual
    by much more than ``ftol``, so only the budget of 100 Jacobians stops
    the solve."""
    jcalls = []
    sol = G.least_squares(lambda x: [math.exp(x[0])], [0.0],
                          jac=_counted(lambda x: [{0: math.exp(x[0])}], jcalls))
    assert len(jcalls) == 100
    assert sol.x[0] < -10


@pytest.mark.parametrize("fun, jac, moves", [
    (lambda x: [math.nan], lambda x: [{0: 1.0}], False),
    (lambda x: [x[0] - 1.0], lambda x: [{0: math.nan}], False),
    (lambda x: [x[0] - 1.0 if x[0] < 0.5 else math.nan], lambda x: [{0: 1.0}], True),
], ids=["objective", "jacobian", "after-a-step"])
def test_least_squares_stops_on_nan(fun, jac, moves):
    """A NaN residual or Jacobian entry ends the solve with a ``Fit`` at the
    last finite point: a NaN step or pivot stops it at once, and a NaN
    residual after a step is a rejection, which grows the damping until the
    step stays in the finite region or fails the step tests."""
    sol = G.least_squares(fun, [0.0], jac=jac)
    assert isinstance(sol, G.Fit) and math.isfinite(sol.x[0])
    assert (0.0 < sol.x[0] < 0.5) if moves else sol.x == [0.0]


def _cholesky_case(rng, size, density):
    """A random sparse J (with a full diagonal) and right-hand side."""
    j = rng.normal(size=(2 * size, size)) * (rng.random((2 * size, size)) < density)
    j[np.arange(size), np.arange(size)] += 1.0
    return j, rng.normal(size=2 * size)


@pytest.mark.parametrize("size, density", [(5, 0.5), (20, 0.1), (60, 0.05), (60, 0.3)])
def test_cholesky_solve_matches_numpy(size, density):
    """The normal equations and the sparse Cholesky solve of the damped
    system against numpy's dense product and ``linalg.solve``, to a relative
    1e-12, on random sparse systems and on the A(9) normal matrix at a
    random point, damped as ``least_squares`` first damps it."""
    rng = np.random.default_rng(size + int(100 * density))
    g = _json_A(9)
    objective, jacobian = G._compile_objective(g, triangles(g))
    x = rng.normal(size=72).tolist()
    for j, f in (_cholesky_case(rng, size, density), (_dense(jacobian(x), 72), objective(x))):
        upper, g = G._normal_equations(_rows(j), list(f), j.shape[1])
        a = np.triu(_dense(upper, j.shape[1]))
        a = a + np.triu(a, 1).T
        assert np.max(np.abs(a - j.T @ j)) <= 1e-12 * np.max(np.abs(j.T @ j))
        assert np.max(np.abs(np.array(g) - j.T @ f)) <= 1e-12 * np.max(np.abs(j.T @ f))
        mu = 1e-3 * max(np.diag(a))
        want = np.linalg.solve(a + mu * np.eye(len(a)), -np.array(g))
        got = G._cholesky_solve(upper, mu, [-v for v in g])
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_cholesky_solve_refuses_a_bad_pivot():
    """A pivot that is not positive and finite gives None, not an error
    from ``math.sqrt``."""
    assert G._cholesky_solve([{0: 1.0, 1: 2.0}, {1: 1.0}], 0.0, [1.0, 1.0]) is None
    assert G._cholesky_solve([{0: math.inf}], 1.0, [1.0]) is None
    assert G._cholesky_solve([{0: 4.0}], 0.0, [2.0]) == [0.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", range(4, 13))
def test_json_cells_solve_on_first_start(monkeypatch, n):
    """JSON A(4)..A(12) each pass the certificate with one least-squares
    call, the first of the 12 restarts."""
    calls = []
    real = G.least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(G, "least_squares", counted)
    assert solve_cells(_json_A(n)).residual < 1e-10
    assert len(calls) == 1


_JSON_CELLS = """
import json
from a2planar.graph import FusionGraph, build_A, solve_cells
print(json.dumps({n: sorted((t, v.real, v.imag) for t, v in solve_cells(
    FusionGraph.from_json(build_A(n).to_json())).values.items()) for n in (7, 9)}))
"""


def test_json_cells_reproducible_across_calls_and_processes():
    """Twenty solves of JSON A(7) and of JSON A(9) in this process give one
    cell set each, and three fresh processes give the same sets."""
    here = {}
    for n in (7, 9):
        first = solve_cells(_json_A(n)).values
        for _ in range(19):
            assert solve_cells(_json_A(n)).values == first
        here[str(n)] = [[list(t), v.real, v.imag] for t, v in sorted(first.items())]
    src = os.path.dirname(os.path.dirname(G.__file__))
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", _JSON_CELLS], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        assert json.loads(out) == here


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
    u = [np.array(hecke_operator(g, cells, g.star, 4, i)) for i in range(3)]
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
    u = [np.array(hecke_operator(g, cells, g.star, 4, i)) for i in range(3)]
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
    u1 = np.array(hecke_operator(g, gauged, g.star, 3, 0))
    u2 = np.array(hecke_operator(g, gauged, g.star, 3, 1))
    braid = (u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)
    assert np.max(np.abs(braid)) < 1e-10


def _numpy_braid_residual(g, cells):
    u1 = np.array(hecke_operator(g, cells, g.star, 3, 0))
    u2 = np.array(hecke_operator(g, cells, g.star, 3, 1))
    return float(np.max(np.abs((u1 @ u2 @ u1 - u1) - (u2 @ u1 @ u2 - u2)), initial=0.0))


@pytest.mark.parametrize("make, n", [(build_A, n) for n in range(4, 13)]
                         + [(_json_A, n) for n in range(5, 9)],
                         ids=[f"A{n}" for n in range(4, 13)] + [f"A{n}-json" for n in range(5, 9)])
def test_braid_residual_matches_numpy_product(make, n):
    """The pure-Python braid residual against the numpy product of the
    ``hecke_operator`` matrices.  On cells with every weight rephased
    differently, whose residual is far from 0, the residuals agree to a
    relative 1e-12.  On the solved cells both residuals are roundoff, of
    order 1e-16, whose relative difference shows only whether the two sides
    round alike, so there the four products are compared entry by entry, to
    1e-12 of their largest entry."""
    g = make(n)
    cells = solve_cells(g)
    bent = CellSystem(g, {t: v * (1 + 0.05j * k) for k, (t, v) in enumerate(cells.values.items())},
                      0.0)
    want = _numpy_braid_residual(g, bent)
    assert abs(G._braid_residual(g, bent) - want) <= 1e-12 * want
    if n > 4:
        assert want > 1e-3
    u1, u2 = (hecke_operator(g, cells, g.star, 3, i) for i in (0, 1))
    a1, a2 = np.array(u1), np.array(u2)
    u12, u21 = G._matmul(u1, u2), G._matmul(u2, u1)
    for got, want in ((u12, a1 @ a2), (u21, a2 @ a1),
                      (G._matmul(u12, u1), a1 @ a2 @ a1), (G._matmul(u21, u2), a2 @ a1 @ a2)):
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))


def test_perturbed_cells_fail():
    g = build_A(5)
    cells = solve_cells(g)
    bad = dict(cells.values)
    k = next(iter(bad))
    bad[k] = bad[k] * 1.1
    assert type_I_residual(g, CellSystem(g, bad, 0.0)) > 1e-3


NON_FINITE = pytest.mark.parametrize("kind", ["one-nan", "one-inf", "all-nan"])


def _non_finite(g, values, kind):
    """``values`` with the weight of the first triangle at the star set to
    NaN (``one-nan``) or inf (``one-inf``), or with every weight NaN."""
    if kind == "all-nan":
        return {t: complex(math.nan, math.nan) for t in values}
    t0 = next(t for t in sorted(values) if any(g.source(e) == g.star for e in t))
    return {**values, t0: complex(math.nan if kind == "one-nan" else math.inf, 0.0)}


@NON_FINITE
def test_non_finite_cells_fail_every_residual(monkeypatch, kind):
    """Positive control: every residual of cells with a NaN or inf weight is
    inf, so no check can pass them, and ``solve_cells`` refuses them from
    either route."""
    from a2planar import pathalg as P

    g = build_A(6)
    values = _non_finite(g, solve_cells(g).values, kind)
    cells = CellSystem(g, values, 0.0)
    residuals = [type_I_residual(g, cells), G._braid_residual(g, cells)]
    for parity in ("even", "odd"):
        conn = P.connection(g, cells, parity)
        residuals += [conn.unitarity_residual(), conn.commuting_square_residual()]
    residuals.append(P.flatness_check(g, cells, 2, 2)["max_commutator"])
    assert residuals == [math.inf] * 7
    monkeypatch.setattr(G, "_cells_A", lambda g, tris: values)
    with pytest.raises(G.UncertifiedCells) as exc:
        solve_cells(g)
    assert exc.value.cells.residual == math.inf
    # the least-squares route: a fit that lands on such weights
    g = _json_A(6)
    tris = triangles(g)
    x = [v for t in tris for v in (values[t].real, values[t].imag)]  # same triangle order
    monkeypatch.setattr(G, "least_squares", lambda fun, x0, jac: G.Fit(x, 1))
    assert G._cells_lm(g, tris, 1e-10)[1] == math.inf
    with pytest.raises(G.UncertifiedCells) as exc:
        solve_cells(g)
    assert exc.value.cells.residual == math.inf


@pytest.mark.parametrize("at", [0, 7])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_phi_fails_its_certificate(monkeypatch, at, bad):
    """Positive control: a closed-form phi with a NaN or inf entry fails
    the bracket, and, with the bracket passed over, the eigen-residual."""
    g = build_A(6)
    closed = G._phi_A
    monkeypatch.setattr(G, "_phi_A", lambda g: [bad if k == at else v
                                                for k, v in enumerate(closed(g))])
    with pytest.raises(G.UncertifiedPhi, match="eigenvalue is not") as exc:
        pf_eigen(g)
    assert exc.value.residual == math.inf
    q3 = qnum(3, g.n)
    monkeypatch.setattr(G, "_bracket", lambda g, x: (q3, q3))
    with pytest.raises(G.UncertifiedPhi, match="eigen-residual") as exc:
        pf_eigen(g)
    assert exc.value.residual == math.inf


def test_worst():
    assert G.worst([]) == 0.0
    assert G.worst([1e-12, 3e-11, 2e-11]) == 3e-11
    for bad in (math.nan, math.inf):
        assert G.worst([0.0, 1.0, bad, 2.0]) == math.inf
        assert G.worst([bad, 1.0]) == math.inf
        assert G.worst(x for x in (1.0, bad)) == math.inf



def test_gram_residual():
    """Rows orthogonal with squared norm t read 0; an overlap between two
    unit rows is read off the pair, not the diagonal; a column missing from
    y counts as 0; a NaN or inf in any row reads inf."""
    s = 1 / math.sqrt(2)
    assert G.gram_residual([]) == 0.0
    assert G.gram_residual([(2.0, [{0: 1.0, 1: 1j}, {0: 1j, 1: 1.0}])]) == 0.0
    assert G.gram_residual([(1.0, [{0: 1.0}, {1: 1.0}]), (1.0, [{0: 1j}])]) == 0.0
    assert G.gram_residual([(1.0, [{0: 1.0, 1: 0.0}, {0: s, 1: s}])]) == pytest.approx(s)
    assert G.gram_residual([(1.0, [{0: 0.6, 1: 0.8}, {0: 0.8, 1: -0.6}])]) == 0.0
    for bad in (math.nan, math.inf):
        assert G.gram_residual([(1.0, [{0: 1.0}, {1: complex(bad, 0.0)}])]) == math.inf
        assert G.gram_residual([(1.0, [{0: 1.0}]), (1.0, [{0: bad}])]) == math.inf

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
    u1 = np.array(hecke_operator(g, cells, g.star, 3, 0))
    u2 = np.array(hecke_operator(g, cells, g.star, 3, 1))
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
    objective, _ = G._compile_objective(g, tris)
    for _ in range(3):
        x = rng.normal(size=2 * len(tris))
        want = _dict_route(g, tris, x)
        got = np.array(objective(x.tolist()))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize(
    "g",
    [build_A(5), build_A(6), build_A(7), build_A(8), FusionGraph.from_json(build_A(6).to_json())],
    ids=["A5", "A6", "A7", "A8", "A6-json"],
)
def test_compiled_jacobian_matches_central_differences(g):
    rng = np.random.default_rng(11)
    tris = triangles(g)
    objective, jacobian = G._compile_objective(g, tris)
    h = 1e-6
    for _ in range(3):
        x = rng.normal(size=2 * len(tris))
        got = _dense(jacobian(x.tolist()), len(x))
        want = np.column_stack([(np.array(objective((x + h * e).tolist()))
                                 - np.array(objective((x - h * e).tolist()))) / (2 * h)
                                for e in np.eye(len(x))])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-6 * np.max(np.abs(want))


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


def _recorded_residuals(kind):
    """The residuals of ``tests/residuals_recorded.json``, written by the
    per-certificate loops that ``gram_residual`` replaced: for each route,
    a float.hex per n (and per parity for the connection)."""
    path = os.path.join(os.path.dirname(__file__), "residuals_recorded.json")
    with open(path) as fh:
        return json.load(fh)[kind]


def _cells_or_uncertified(g):
    """The cells of ``g``, also when they miss the bound (A(31))."""
    try:
        return solve_cells(g)
    except G.UncertifiedCells as exc:
        return exc.cells


@pytest.mark.parametrize("route", ["build_A", "json"])
def test_type_I_residual_matches_recorded(route):
    """Bit for bit on A(4..31) and on JSON A(4..12)."""
    make = {"build_A": build_A, "json": _json_A}[route]
    recorded = _recorded_residuals("type_I")[route]
    assert sorted(map(int, recorded)) == list(range(4, 32 if route == "build_A" else 13))
    for n, want in recorded.items():
        g = make(int(n))
        assert type_I_residual(g, _cells_or_uncertified(g)).hex() == want, n
