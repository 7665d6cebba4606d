"""Command-line interface: reports, exit codes, round trips."""

import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from a2planar import cli
from a2planar import graph as G
from a2planar import pathalg as P
from a2planar.algebra import WebSum, identity, mult, wsum
from a2planar.cli import main
from a2planar.graph import build_A, solve_cells
from a2planar.hecke import GeneratorWord, cupcap_sum, evaluate
from a2planar.web import wgen_web


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, env=None):
    return runner.invoke(main, args, env=env)


def report(result):
    text = result.output
    start = text.index("{")
    return json.loads(text[start:])


def test_relcheck_hecke(runner):
    result = run(runner, ["relcheck", "--suite", "hecke", "--m", "4"])
    assert result.exit_code == 0
    doc = report(result)
    assert doc["suite"] == "relcheck:hecke"
    assert doc["checks"]
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert {"id", "status", "residual", "runtime_ms"} <= set(doc["checks"][0])


def test_relcheck_markov_seeded(runner):
    a = run(runner, ["relcheck", "--suite", "markov", "--m", "3",
                     "--seed", "1", "--trials", "5"])
    b = run(runner, ["relcheck", "--suite", "markov", "--m", "3",
                     "--seed", "1", "--trials", "5"])
    assert a.exit_code == b.exit_code == 0
    assert [c["id"] for c in report(a)["checks"]] == [
        c["id"] for c in report(b)["checks"]]


def test_gram_rank(runner):
    result = run(runner, ["gram", "--sigma", "-,-,-,+,+,+", "--n", "5", "--rank"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "5"
    result = run(runner, ["gram", "--sigma", "---+++", "--n", "7", "--rank"])
    assert result.output.splitlines()[0] == "6"


def test_quotient_dim(runner):
    result = run(runner, ["quotient-dim", "--sigma", "---+++", "--n", "5"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "5"


def test_quotient_dim_counts_every_web(runner):
    result = run(runner, ["quotient-dim", "--sigma", "--+-++-+", "--n", "7"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "23"


def test_dims(runner):
    result = run(runner, ["dims", "--n", "5", "--i", "1", "--j", "2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "5"


def test_graph_build_a(runner):
    result = run(runner, ["graph", "build-a", "--n", "4"])
    assert result.exit_code == 0
    doc = report(result)
    assert len(doc["result"]["vertices"]) == 3
    assert doc["result"]["n"] == 4


def test_graph_build_a_out_reads_back(runner, tmp_path):
    f = tmp_path / "a6.json"
    result = run(runner, ["graph", "build-a", "--n", "6", "--out", str(f)])
    assert result.exit_code == 0
    by_file = run(runner, ["dims", "--graph", str(f), "--i", "1", "--j", "2"])
    by_n = run(runner, ["dims", "--n", "6", "--i", "1", "--j", "2"])
    assert by_file.exit_code == by_n.exit_code == 0
    assert by_file.output.splitlines()[0] == by_n.output.splitlines()[0]


def test_cells_solve(runner):
    result = run(runner, ["cells", "solve", "--n", "4"])
    assert result.exit_code == 0
    doc = report(result)
    assert doc["checks"][0]["residual"] < 1e-10
    assert doc["result"]["values"]


def test_connection_check(runner):
    result = run(runner, ["connection", "check", "--n", "5"])
    assert result.exit_code == 0
    doc = report(result)
    ids = {c["id"] for c in doc["checks"]}
    assert ids == {
        "unitarity_even", "unitarity_odd",
        "commuting_square_even", "commuting_square_odd",
    }
    assert all(c["residual"] < 1e-10 for c in doc["checks"])


def test_flat_check(runner):
    result = run(runner, ["flat", "check", "--n", "4", "--hmax", "2", "--vmax", "2"])
    assert result.exit_code == 0
    doc = report(result)
    assert doc["result"]["max_commutator"] < 1e-8


def test_normalize_round_trip(runner, tmp_path):
    x = WebSum.from_web(wgen_web("---", 0))
    xx = mult(x, x)  # reduces to [2] times the generator
    rows = [{"coeff": c.to_json(), "web": w.to_json()} for w, c in xx.terms.items()]
    f = tmp_path / "sum.json"
    f.write_text(json.dumps(rows))
    result = run(runner, ["normalize", "--in", str(f)])
    assert result.exit_code == 0
    doc = report(result)
    assert len(doc["result"]) == 1
    assert doc["result"][0]["coeff"]["laurent"] == {"-3": "1/1", "3": "1/1"}


def test_trace_identity(runner, tmp_path):
    from a2planar.web import identity_web

    w = identity_web("-")
    f = tmp_path / "one.json"
    f.write_text(json.dumps(
        [{"coeff": {"laurent": {"0": "1/1"}}, "web": w.to_json()}]))
    result = run(runner, ["trace", "--in", str(f)])
    assert result.exit_code == 0
    doc = report(result)
    # trace of a single strand closes to a loop: the quantum 3
    assert doc["result"]["laurent"] == {"-6": "1/1", "0": "1/1", "6": "1/1"}


def test_decompose(runner, tmp_path):
    x = WebSum.from_web(wgen_web("---", 1))
    rows = [{"coeff": c.to_json(), "web": w.to_json()} for w, c in x.terms.items()]
    f = tmp_path / "w.json"
    f.write_text(json.dumps(rows))
    result = run(runner, ["decompose", "--in", str(f)])
    assert result.exit_code == 0
    doc = report(result)
    assert doc["checks"][0]["status"] == "pass"
    word = GeneratorWord.from_json(doc["result"])
    assert (evaluate(word) - x).is_zero()


def test_zmap(runner, tmp_path):
    word = [list(t) for t in P.word_w(1, 2, 0)]
    f = tmp_path / "word.json"
    f.write_text(json.dumps(word))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5",
                          "--i", "1", "--j", "2"])
    assert result.exit_code == 0
    doc = report(result)
    g = build_A(5)
    z = P.PathAlgElement.from_json(g, (1, 2), doc["result"])
    cells = solve_cells(g)
    assert z.dist(P.make_U(g, cells, 1, 2, 0)) < 1e-10


def test_zmap_with_labels(runner, tmp_path):
    g = build_A(5)
    pairs = P.enumerate_pairs(g, 1, 1)
    x = P.PathAlgElement(g, (1, 1), {pairs[0]: 1.0 + 0.5j})
    (tmp_path / "word.json").write_text(
        json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(
        json.dumps([{"level": [1, 1], "terms": x.to_json()}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert result.exit_code == 0
    z = P.PathAlgElement.from_json(g, (1, 1), report(result)["result"])
    assert z.dist(x) < 1e-12


def test_precision_guard(runner):
    result = run(runner, ["dims", "--n", "4", "--i", "0", "--j", "0"],
                 env={"A2P_PRECISION": "128"})
    assert result.exit_code == 2


def test_usage_error(runner):
    result = run(runner, ["relcheck", "--suite", "bogus"])
    assert result.exit_code == 2


def test_missing_input(runner):
    result = run(runner, ["normalize", "--in", "/nonexistent/x.json"])
    assert result.exit_code == 2


def assert_input_error(result, *words):
    """Exit 2 with a single ``Error:`` line naming ``words``, no traceback."""
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert len(errors) == 1
    assert all(w in errors[0] for w in words)


def test_normalize_not_json(runner, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("not json")
    assert_input_error(run(runner, ["normalize", "--in", str(f)]), "--in")


def test_normalize_row_without_boundary(runner, tmp_path):
    f = tmp_path / "nob.json"
    f.write_text(json.dumps(
        [{"coeff": {"laurent": {"0": "1/1"}}, "web": {"vertices": []}}]))
    assert_input_error(run(runner, ["normalize", "--in", str(f)]), "--in", "boundary")


def test_gram_bad_sigma(runner):
    assert_input_error(run(runner, ["gram", "--sigma=--x", "--n", "7", "--rank"]), "--sigma")


def test_quotient_dim_bad_sigma(runner):
    assert_input_error(run(runner, ["quotient-dim", "--sigma=-+ab", "--n", "6"]), "--sigma")


def test_dims_small_n(runner):
    assert_input_error(run(runner, ["dims", "--n", "2", "--i", "1", "--j", "1"]), "--n")


def test_cells_solve_small_n(runner):
    assert_input_error(run(runner, ["cells", "solve", "--n", "2"]), "--n")


def test_dims_negative_level(runner):
    assert_input_error(run(runner, ["dims", "--n", "5", "--i", "-1", "--j", "0"]), "--i")


def test_flat_check_negative_depth(runner):
    for opt in ("--hmax", "--vmax"):
        assert_input_error(run(runner, ["flat", "check", "--n", "5", opt, "-1"]), opt)


@pytest.mark.parametrize("cmd", [
    ["gram", "--sigma", "-+", "--n", "3"],
    ["quotient-dim", "--sigma", "-+", "--n", "3"],
    ["relcheck", "--suite", "f13", "--n", "3"],
], ids=["gram", "quotient-dim", "relcheck-f13"])
def test_root_order_below_4(runner, cmd):
    assert_input_error(run(runner, cmd), "--n")


def test_relcheck_markov_too_few_strands(runner):
    assert_input_error(run(runner, ["relcheck", "--suite", "markov", "--m", "0"]), "--m")


@pytest.mark.parametrize("cmd", [
    ["cells", "solve", "--n", "5"],
    ["connection", "check", "--n", "5"],
    ["flat", "check", "--n", "5"],
], ids=["cells-solve", "connection-check", "flat-check"])
@pytest.mark.parametrize("tol", ["0", "-1", "inf", "nan"])
def test_tol_not_positive_finite(runner, cmd, tol):
    assert_input_error(run(runner, cmd + ["--tol", tol]), "--tol")


def assert_failed_check(result):
    """Exit 1 through the report, with one failed check whose residual is a
    number, and no traceback."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (check,) = report(result)["checks"]
    assert check["status"] == "fail"
    assert isinstance(check["residual"], float)


@pytest.mark.parametrize("argv", [["--n", "5", "--tol", "1e-20"], ["--n", "31"]],
                         ids=["tol-below-roundoff", "n31"])
def test_cells_solve_reports_failed_certificate(runner, argv):
    """``--n 31`` misses the absolute bound 1e-10 by roundoff alone."""
    assert_failed_check(run(runner, ["cells", "solve", *argv]))


def test_cells_solve_reports_stalled_solver(runner, tmp_path, monkeypatch):
    """A least-squares solve that never moves from its start fails the
    ``frame_equations`` check after all 12 restarts."""
    f = tmp_path / "A5.json"
    f.write_text(json.dumps(build_A(5).to_json()))
    calls = []

    def stalled(fun, x0, **kwargs):
        calls.append(1)
        return G.Fit(x0, 1)

    monkeypatch.setattr(G, "least_squares", stalled)
    assert_failed_check(run(runner, ["cells", "solve", "--graph", str(f)]))
    assert len(calls) == 12


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_relcheck_markov_no_trials(runner, trials):
    assert_input_error(
        run(runner, ["relcheck", "--suite", "markov", "--m", "3", "--trials", trials]), "--trials")


def test_relcheck_markov_default_trials(runner):
    doc = report(run(runner, ["relcheck", "--suite", "markov", "--m", "2"]))
    assert doc["config"]["trials"] == 100
    assert doc["checks"][0]["id"].endswith("100 trials")


def test_graph_needed(runner):
    for cmd in (["cells", "solve"], ["connection", "check"], ["flat", "check"]):
        assert_input_error(run(runner, cmd), "--n or --graph")


def _write_websum(path, x):
    path.write_text(json.dumps(
        [{"coeff": c.to_json(), "web": w.to_json()} for w, c in x.terms.items()]))
    return str(path)


@pytest.mark.parametrize("x", [identity(3, "+"), cupcap_sum(3, 1)], ids=["+++", "-+-"])
def test_decompose_other_boundary(runner, tmp_path, x):
    f = _write_websum(tmp_path / "x.json", x)
    assert_input_error(run(runner, ["decompose", "--in", f]), "--in", "boundary")


def test_decompose_negative_max_len(runner, tmp_path):
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    assert_input_error(run(runner, ["decompose", "--in", f, "--max-len", "-1"]), "--max-len")


def test_decompose_same_under_hash_seeds(tmp_path):
    """The printed report, apart from its timing, does not depend on set
    and dict order."""
    x = mult(mult(wsum(4, 1), wsum(4, 0)), wsum(4, 2)) + wsum(4, 2).scale(3)
    f = _write_websum(tmp_path / "x.json", x)
    src = os.path.dirname(os.path.dirname(P.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "a2planar.cli", "decompose", "--in", f],
            capture_output=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "1")
    ]
    untimed = [b"".join(l for l in o.splitlines(True) if b'"runtime_ms"' not in l) for o in outs]
    assert untimed[0] == untimed[1]
    result = json.loads(outs[0])["result"]
    assert evaluate(GeneratorWord.from_json(result)) == x


def test_zmap_unknown_strip_token(runner, tmp_path):
    f = tmp_path / "bogus.json"
    f.write_text(json.dumps([["BOGUS", 1]]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "1", "--j", "2"])
    assert_input_error(result, "--strips", "BOGUS")


def test_zmap_strip_missing_position(runner, tmp_path):
    f = tmp_path / "short.json"
    f.write_text(json.dumps([["CUP"]]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "1", "--j", "2"])
    assert_input_error(result, "--strips")


def test_zmap_empty_cap(runner, tmp_path):
    f = tmp_path / "cap.json"
    f.write_text(json.dumps([["CAP", 1, ""]]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--strips", "cap sign")


def test_zmap_strips_off_level(runner, tmp_path):
    f = tmp_path / "word.json"
    f.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "2", "--j", "2"])
    assert_input_error(result, "--strips", "level (2, 2)")


def test_zmap_label_without_terms(runner, tmp_path):
    (tmp_path / "word.json").write_text(json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(json.dumps([{"level": [1, 1]}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert_input_error(result, "--labels", "terms")


def test_zmap_label_path_off_level(runner, tmp_path):
    # a level-(1, 1) label whose pair holds a one-step path
    (tmp_path / "word.json").write_text(json.dumps([list(t) for t in P.word_insert()]))
    row = {"p1": [[0, 1]], "p2": [[0, 1]], "re": 1.0, "im": 0.0}
    (tmp_path / "labels.json").write_text(json.dumps([{"level": [1, 1], "terms": [row]}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert_input_error(result, "--labels", "not at level")


@pytest.mark.parametrize("cmd", [["cells", "solve"], ["dims", "--i", "1", "--j", "0"],
                                 ["connection", "check"]], ids=lambda c: c[0])
def test_graph_without_pf_eigenvalue_3(runner, tmp_path, cmd):
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps({
        "vertices": [{"id": "a", "colour": 0}, {"id": "b", "colour": 1}],
        "edges": [["a", "b"], ["b", "a"]], "star": "a", "n": 5}))
    assert_input_error(run(runner, cmd + ["--graph", str(f)]), "--graph", "[3]")


def test_decompose_round_trip_failure(runner, tmp_path, monkeypatch):
    def broken(x, max_len):
        raise ArithmeticError("round-trip check failed")

    monkeypatch.setattr(cli, "hecke_decompose", broken)
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    result = run(runner, ["decompose", "--in", f])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    (check,) = report(result)["checks"]
    assert (check["id"], check["status"], check["residual"]) == ("round_trip", "fail", None)


def _residuals(result):
    return [c["residual"] for c in report(result)["checks"]]


def test_residuals_are_numbers_or_null(runner, tmp_path, monkeypatch):
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    passing = _residuals(run(runner, ["decompose", "--in", f]))
    passing += _residuals(run(runner, ["relcheck", "--suite", "hecke", "--m", "3"]))
    assert passing and all(r == 0 and type(r) in (int, float) for r in passing)
    monkeypatch.setattr(cli, "check_hecke", lambda m: [("h1", True), ("h2", False)])
    result = run(runner, ["relcheck", "--suite", "hecke", "--m", "3"])
    assert result.exit_code == 1
    assert _residuals(result) == [0, None]


def test_cells_solve_runtime_covers_the_solve(runner):
    t0 = time.perf_counter()
    result = run(runner, ["cells", "solve", "--n", "7"])
    wall_ms = 1000 * (time.perf_counter() - t0)
    assert result.exit_code == 0
    (check,) = report(result)["checks"]
    assert check["id"] == "frame_equations"
    assert check["runtime_ms"] >= 0.5 * wall_ms


@pytest.mark.parametrize("args", [
    ["normalize"],
    ["trace"],
    ["gram", "--sigma", "---+++", "--n", "7", "--rank"],
    ["quotient-dim", "--sigma", "---+++", "--n", "7"],
], ids=lambda a: a[0])
def test_diagram_runtime_covers_the_work(runner, tmp_path, args):
    if args[0] in ("normalize", "trace"):
        # (w_0 w_1)^6 on four strands, composed but not reduced
        w = wgen_web("----", 0)
        for k in [1, 0] * 5 + [1]:
            w = w.compose(wgen_web("----", k))
        args = args + ["--in", _write_websum(tmp_path / "x.json", WebSum.from_web(w))]
    t0 = time.perf_counter()
    result = run(runner, args)
    wall_ms = 1000 * (time.perf_counter() - t0)
    assert result.exit_code == 0
    (check,) = report(result)["checks"]
    assert check["runtime_ms"] >= 0.5 * wall_ms


_IMPORT_PROBE = """
import contextlib, io, json, sys
from a2planar.cli import main
seen = {}
for argv in json.loads(sys.argv[1]):
    code = 0
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    seen[" ".join(argv)] = [code, [m for m in ("numpy", "scipy") if m in sys.modules]]
print(json.dumps(seen))
"""


def _imports_after(*argvs) -> dict:
    """For each argv run in turn in one fresh process: its exit code and
    which of numpy and scipy are imported once it has run."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    return {cmd: tuple(v) for cmd, v in json.loads(out).items()}


def test_diagram_commands_import_neither_numpy_nor_scipy(tmp_path):
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    argvs = [
        ["--help"],
        ["normalize", "--in", f],
        ["trace", "--in", f],
        ["gram", "--sigma", "--++", "--n", "5", "--rank"],
        ["quotient-dim", "--sigma", "--++", "--n", "5"],
        ["decompose", "--in", f],
        ["relcheck", "--suite", "hecke", "--m", "3"],
    ]
    assert _imports_after(*argvs) == {" ".join(a): (0, []) for a in argvs}


@pytest.mark.parametrize("argv", [
    ["dims", "--n", "5", "--i", "1", "--j", "1"],
    ["graph", "build-a", "--n", "5"],
    ["cells", "solve", "--n", "5"],
    ["connection", "check", "--n", "5"],
    ["flat", "check", "--n", "5"],
    ["zmap", "--strips", "{word}", "--n", "5", "--i", "1", "--j", "2"],
    ["cells", "solve", "--graph", "{graph}"],
    ["connection", "check", "--graph", "{graph}"],
], ids=["dims", "graph-build-a", "cells-solve", "connection-check", "flat-check", "zmap",
        "cells-solve-json", "connection-check-json"])
def test_path_commands_without_cells_leave_scipy_out(argv, tmp_path):
    """Every path command loads numpy but not scipy: those that solve no
    cells, those whose cells are the closed form of a ``--n`` graph, and
    those that solve the cells of a ``--graph`` file by least squares."""
    word = tmp_path / "word.json"
    word.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    graph = tmp_path / "A5.json"
    graph.write_text(json.dumps(build_A(5).to_json()))
    argv = [a.format(word=word, graph=graph) for a in argv]
    assert _imports_after(argv) == {" ".join(argv): (0, ["numpy"])}
