"""Command-line interface: reports, exit codes, round trips."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from a2planar import graph as G
from a2planar import pathalg as P
from a2planar.algebra import WebSum, bend, identity, mult, wsum
from a2planar.cli import main
from a2planar.graph import build_A, solve_cells
from a2planar.hecke import GeneratorWord, cupcap_sum, evaluate
from a2planar.oracle import flip, walk_dim, walk_dim_truncated, walk_endpoints
from a2planar.rewrite import find_redexes, first_crossing
from a2planar.scalar import Laurent, delta
from a2planar.web import crossing_web, cupcap_web, identity_web, wgen_web


class Runner:
    """Runs ``main(args)`` in this process.  stdout and stderr go into one
    buffer, ``output``; the ``SystemExit`` code becomes ``exit_code`` and
    the exception is kept as ``exception``."""

    def invoke(self, args):
        out = io.StringIO()
        result = SimpleNamespace(exit_code=0, exception=None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                main(args)
            except SystemExit as exc:
                result.exit_code = 0 if exc.code is None else exc.code
                result.exception = exc
        result.output = out.getvalue()
        return result


@pytest.fixture()
def runner():
    return Runner()


def run(runner, args):
    return runner.invoke(args)


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


def test_dims_counts_without_listing_paths(runner):
    """Level (40, 0) has 165,580,141 paths; the count walk and its check
    both stay polynomial, and agree with the weight-lattice walk."""
    sigma = G.level_signs(40, 0)
    want = sum(c * c for c in walk_endpoints(sigma, limit=2).values())
    start = time.perf_counter()
    result = run(runner, ["dims", "--n", "5", "--i", "40", "--j", "0"])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == str(want)


def test_dims_count_mismatch_fails_the_check(runner, monkeypatch):
    """A graph whose out-edge lists disagree with its edge list fails the
    ``dims`` check with exit 1, and prints no dimension."""
    def build_bad(n):
        g = build_A(n)
        g.out_edges[g.star] = g.out_edges[g.star] * 2
        return g

    monkeypatch.setattr(G, "build_A", build_bad)
    result = run(runner, ["dims", "--n", "5", "--i", "1", "--j", "0"])
    assert result.exit_code == 1
    assert result.output.startswith("{")
    assert [(c["id"], c["status"]) for c in report(result)["checks"]] == [("dims", "fail")]


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
    f = _write_websum(tmp_path / "sum.json", xx)
    result = run(runner, ["normalize", "--in", f])
    assert result.exit_code == 0
    doc = report(result)
    assert len(doc["result"]) == 1
    assert doc["result"][0]["coeff"]["laurent"] == {"-3": "1/1", "3": "1/1"}


def test_normalize_zero_sum_reads_back(runner, tmp_path):
    """A sum that cancels prints one row with coefficient 0 on a web of its
    boundary, and reads back to the same zero sum."""
    w0 = WebSum.from_web(wgen_web("---", 0))
    ww = WebSum.from_web(wgen_web("---", 0).compose(wgen_web("---", 0)))
    f = _write_websum(tmp_path / "zero.json", ww - w0.scale(delta()))
    first = run(runner, ["normalize", "--in", f])
    assert first.exit_code == 0
    rows = report(first)["result"]
    assert len(rows) == 1 and rows[0]["coeff"] == {"laurent": {}}
    assert rows[0]["web"]["boundary"] == {"top": "---", "bot": "+++"}
    (tmp_path / "again.json").write_text(json.dumps(rows))
    again = run(runner, ["normalize", "--in", str(tmp_path / "again.json")])
    assert again.exit_code == 0
    assert report(again)["result"] == rows
    x = WebSum.from_json(rows)
    assert x.is_zero() and (x.top, x.bot) == ("---", "+++")


def test_trace_identity(runner, tmp_path):
    f = _write_websum(tmp_path / "one.json", identity(1))
    result = run(runner, ["trace", "--in", f])
    assert result.exit_code == 0
    doc = report(result)
    # trace of a single strand closes to a loop: the quantum 3
    assert doc["result"]["laurent"] == {"-6": "1/1", "0": "1/1", "6": "1/1"}


@pytest.mark.parametrize("web", [bend(identity_web("-"), 2), bend(identity_web("--"), 3)],
                         ids=["bent-one-strand", "bent-two-strands"])
def test_trace_refuses_a_non_endomorphism(runner, tmp_path, web):
    """A sum whose top is not its flipped bottom failed inside the closure
    with a WebError traceback ("closure did not reach a scalar", "closure
    strands have inconsistent orientations")."""
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(web))
    assert_input_error(run(runner, ["trace", "--in", f]), "--in", "flipped bottom")


def test_decompose(runner, tmp_path):
    x = WebSum.from_web(wgen_web("---", 1))
    f = _write_websum(tmp_path / "w.json", x)
    result = run(runner, ["decompose", "--in", f])
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
    z = P.PathAlgElement(g, (1, 2), P.terms_from_json(doc["result"]))
    cells = solve_cells(g)
    assert z.dist(P.make_U(g, cells, 1, 2, 0)) < 1e-10


def test_zmap_with_labels(runner, tmp_path):
    g = build_A(5)
    pairs = P.enumerate_pairs(g, 1, 1)
    x = P.PathAlgElement(g, (1, 1), {pairs[0]: 1.0 + 0.5j})
    (tmp_path / "word.json").write_text(
        json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(
        json.dumps([{"level": [1, 1], "terms": P.terms_to_json(x.terms)}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert result.exit_code == 0
    z = P.PathAlgElement(g, (1, 1), P.terms_from_json(report(result)["result"]))
    assert z.dist(x) < 1e-12


def test_help_as_the_console_script_runs_it():
    """``main()`` reads ``sys.argv``, and ``--help`` prints usage on stdout
    that starts with ``Usage: a2planar``."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    launch = "import sys; from a2planar.cli import main; sys.argv[0] = 'a2planar'; main()"
    proc = subprocess.run([sys.executable, "-c", launch, "--help"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout.startswith("Usage: a2planar")


@pytest.mark.parametrize("cmd, sigma, n", [("gram", "--+--+++", 8), ("quotient-dim", "-----++", 6)])
def test_sigma_starting_with_dashes_as_its_own_token(runner, cmd, sigma, n):
    argv = [cmd, "--sigma", sigma, "--n", str(n)] + (["--rank"] if cmd == "gram" else [])
    result = run(runner, argv)
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == str(walk_dim_truncated(sigma, n))


@pytest.mark.parametrize("sig", [["--sig", "---+++"], ["--sig=---+++"]], ids=["token", "equals"])
def test_abbreviated_option(runner, sig):
    assert run(runner, ["gram", *sig, "--n", "5"]).exit_code == 2


def test_reader_that_leaves_early():
    """A pipe closed before the report is written ends the command quietly,
    with the report's exit code."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "a2planar.cli", "graph", "build-a", "--n", "30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


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
    rows = identity(1).to_json()
    rows[0]["web"] = {"vertices": []}
    f = tmp_path / "nob.json"
    f.write_text(json.dumps(rows))
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


@pytest.mark.parametrize("m", ["2", "3"])
@pytest.mark.parametrize("suite", ["su3", "frels"])
def test_relcheck_suite_below_its_least_m(runner, suite, m):
    """su3 and frels have no relation to check on fewer than four strands."""
    assert_input_error(run(runner, ["relcheck", "--suite", suite, "--m", m]), "--m", "4")


def test_relcheck_f13_at_n4(runner):
    result = run(runner, ["relcheck", "--suite", "f13", "--n", "4"])
    assert result.exit_code == 0
    assert all(c["status"] == "pass" for c in report(result)["checks"])


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


@pytest.mark.parametrize("argv", [["--n", "5", "--tol", "1e-20"], ["--n", "31"], ["--n", "46"]],
                         ids=["tol-below-roundoff", "n31", "n46"])
def test_cells_solve_reports_failed_certificate(runner, argv):
    """``--n 31`` misses the absolute bound 1e-10 by roundoff alone, and so
    does ``--n 46``, whose Perron-Frobenius weights pass their certificate."""
    result = run(runner, ["cells", "solve", *argv])
    assert_failed_check(result)
    assert report(result)["checks"][0]["id"] == "frame_equations"


@pytest.mark.parametrize("command", ["connection", "flat", "zmap"])
def test_cell_commands_report_failed_certificate(runner, tmp_path, command):
    """The other commands that solve cells report the missed certificate at
    ``--n 31`` and ``--n 46`` the way ``cells solve`` does, before any work
    of their own."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    argv = {
        "connection": ["connection", "check"],
        "flat": ["flat", "check"],
        "zmap": ["zmap", "--strips", str(f), "--i", "1", "--j", "2"],
    }[command]
    for n in ("31", "46"):
        result = run(runner, [*argv, "--n", n])
        assert_failed_check(result)
        assert report(result)["checks"][0]["id"] == "frame_equations"


@pytest.mark.parametrize("command", ["cells", "connection", "flat", "zmap"])
def test_cell_commands_report_eigenvector_mismatch(runner, tmp_path, monkeypatch, command):
    """Closed-form Perron-Frobenius weights that fail their certificate, in
    the bracket (the largest entry of A(12), about 19, times 1 + 1e-6) or
    in the residual alone (plus 1e-9), make every command that solves cells
    report a failed ``perron_frobenius`` check with the residual that
    failed, not a traceback."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    argv = {
        "cells": ["cells", "solve"],
        "connection": ["connection", "check"],
        "flat": ["flat", "check"],
        "zmap": ["zmap", "--strips", str(f), "--i", "1", "--j", "2"],
    }[command]
    closed = G._phi_A
    for bump, bound in ((lambda x: x * (1 + 1e-6), 1e-9), (lambda x: x + 1e-9, 1e-10)):
        def phi_A(g, bump=bump):
            vec = closed(g)
            k = vec.index(max(vec))
            vec[k] = bump(vec[k])
            return vec

        monkeypatch.setattr(G, "_phi_A", phi_A)
        result = run(runner, [*argv, "--n", "12"])
        assert_failed_check(result)
        (check,) = report(result)["checks"]
        assert check["id"] == "perron_frobenius"
        assert check["residual"] > bound


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


@pytest.mark.parametrize("suite, read", [
    ("hecke", ["m"]), ("su3", ["m"]), ("frels", ["m"]), ("markov", ["m", "seed", "trials"]),
    ("braid", ["m"]), ("spherical", []), ("f13", ["n"])])
def test_relcheck_config_lists_the_options_its_suite_reads(runner, suite, read):
    """Every option is given; the report's config keeps those the suite
    reads."""
    given = {"m": 4 if suite in ("su3", "frels") else 3, "n": 4, "seed": 2, "trials": 5}
    argv = ["relcheck", "--suite", suite]
    for k, v in given.items():
        argv += [f"--{k}", str(v)]
    result = run(runner, argv)
    assert result.exit_code == 0
    assert report(result)["config"] == dict({k: given[k] for k in read}, precision_bits=64)


def test_graph_needed(runner):
    for cmd in (["cells", "solve"], ["connection", "check"], ["flat", "check"]):
        assert_input_error(run(runner, cmd), "--n or --graph")


def _write_websum(path, x):
    path.write_text(json.dumps(x.to_json()))
    return str(path)


@pytest.mark.parametrize("out", ["missing/x.json", "."], ids=["no-directory", "a-directory"])
def test_out_not_writable(runner, tmp_path, out):
    out = str(tmp_path / out)
    f = _write_websum(tmp_path / "sum.json", cupcap_sum(3, 1))
    for cmd in (["normalize", "--in", f], ["graph", "build-a", "--n", "5"]):
        assert_input_error(run(runner, [*cmd, "--out", out]), "--out", out)


@pytest.mark.parametrize("x", [identity(3, "+"), cupcap_sum(3, 1)], ids=["+++", "-+-"])
def test_decompose_other_boundary(runner, tmp_path, x):
    f = _write_websum(tmp_path / "x.json", x)
    assert_input_error(run(runner, ["decompose", "--in", f]), "--in", "boundary")


def test_decompose_digon(runner, tmp_path):
    """The digon W_0 W_0, a web that is not reduced, prints [2] W_0 and
    exits 0; it exited 2 as not in the span of the reduced webs."""
    w = wgen_web("---", 0)
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(w.compose(w, check=False)))
    result = run(runner, ["decompose", "--in", f])
    assert result.exit_code == 0
    word = GeneratorWord.from_json(report(result)["result"])
    assert word.terms == {(("w", 0),): delta()}


def test_decompose_refuses_max_len(runner, tmp_path):
    """The word length bound is worked out from the strands, so the
    option that set it is gone."""
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    assert_input_error(run(runner, ["decompose", "--in", f, "--max-len", "5"]), "--max-len")


def _strict_json(text):
    """``text`` parsed as JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_cells_solve_non_finite_weight(runner, monkeypatch, bad):
    """Positive control: closed-form cells with one NaN or inf weight fail
    ``frame_equations`` with a null residual, exit 1, and the report, cells
    included, is JSON with null where a number is not finite."""
    closed = G._cells_A

    def broken(g, tris):
        values = closed(g, tris)
        values[tris[0]] = complex(bad, 0.0)
        return values

    monkeypatch.setattr(G, "_cells_A", broken)
    result = run(runner, ["cells", "solve", "--n", "6"])
    assert result.exit_code == 1
    doc = _strict_json(result.output)
    (check,) = doc["checks"]
    assert (check["id"], check["status"], check["residual"]) == ("frame_equations", "fail", None)
    assert doc["result"]["residual"] is None
    assert [v["re"] for v in doc["result"]["values"]].count(None) == 1


def test_report_writes_non_finite_residuals_as_null(capsys):
    from a2planar.cli import Report

    rep = Report("control")
    rep.add("finite", True, residual=1e-12)
    rep.add("nan", True, residual=math.nan)
    rep.add("inf", True, residual=math.inf)
    assert rep.emit() == 1
    checks = _strict_json(capsys.readouterr().out)["checks"]
    assert [(c["status"], c["residual"]) for c in checks] == [
        ("pass", 1e-12), ("fail", None), ("fail", None)]


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


def _seeded_sums(seed, boundaries):
    """One web sum per boundary word: four products of 3-6 random
    generators, the second and fourth with crossings, each with a small
    rational monomial coefficient.  Composed, not reduced."""
    rng = random.Random(seed)
    out = []
    for sigma in boundaries:
        terms = []
        for k in range(4):
            w = identity_web(sigma)
            for _ in range(rng.randrange(3, 7)):
                i, kind = rng.randrange(len(sigma) - 1), rng.randrange(3) if k % 2 else 0
                if sigma[i] != sigma[i + 1]:
                    w = w.compose(cupcap_web(sigma, i))
                elif kind == 0:
                    w = w.compose(wgen_web(sigma, i))
                else:
                    w = w.compose(crossing_web(sigma, i, kind == 1))
            coeff = Fraction(rng.randrange(-3, 4) or 1, rng.choice([1, 2]))
            terms.append((w, Laurent({rng.randrange(-3, 4): coeff})))
        out.append(WebSum(sigma, terms[0][0].bot, terms))
    return out


# sha256 of each command's printed reports, in order, with the runtime_ms
# lines dropped and the input path written as IN; recorded at 45910c5
PAYLOAD_DIGESTS = {
    "normalize": "ea2b871d0bdcc321382187689979720dbe1683fd5469ca4915cd201ca24237e2",
    "trace": "b667632d55cf1354912cc4d83d94b15d9563c1cd3e2a0c28e9248d296db13622",
    "decompose": "99a6fa61b6c9ebe1b17387091ee660feddc2462da32b50e8b6c3d8fcf33eccf4",
}


def test_diagram_payloads_match_recorded(runner, tmp_path):
    """``normalize``, ``trace`` and ``decompose`` print, byte for byte, what
    they printed when the digests were recorded.  The inputs hold
    crossings, digons and squares, so the digests pin the term order of
    every sum and the edge order of every reduced web."""
    sums = _seeded_sums(22, ["---", "-+-+", "----", "--+-"])
    webs = [w for x in sums for w in x.terms]
    assert {r[0] for w in webs for r in find_redexes(w)} == {"digon", "square"}
    assert any(first_crossing(w) is not None for w in webs)
    words = [x.normalized() for x in _seeded_sums(23, ["---", "---", "----"])]
    runs = [("normalize", x) for x in sums] + [("trace", x) for x in sums]
    runs += [("decompose", x) for x in words]
    digests = {}
    for k, (cmd, x) in enumerate(runs):
        f = _write_websum(tmp_path / f"{k}.json", x)
        result = run(runner, [cmd, "--in", f])
        assert result.exit_code == 0
        text = "".join(l for l in result.output.replace(f, "IN").splitlines(True)
                       if '"runtime_ms"' not in l)
        digests.setdefault(cmd, hashlib.sha256()).update(text.encode())
    assert {cmd: h.hexdigest() for cmd, h in digests.items()} == PAYLOAD_DIGESTS


# The words of the diagram workload's four Gram commands, with their n
GRAM_CASES = (("----++++", 7), ("-+-+-+-+", 5), ("--+--+++", 8), ("-----++", 6))


def _variants(word: str) -> list:
    """Every rotation of ``word``, of its reversal, and of the flips of both."""
    flips = (word, word[::-1], flip(word), flip(word)[::-1])
    return sorted({w[k:] + w[:k] for w in flips for k in range(len(w))})


# sha256 of the printed reports, in order, with the runtime_ms lines
# dropped: ``gram`` (no --rank) on every sign word of length 2 to 6 that
# has a basis, at n = 5 to 8, then ``quotient-dim`` on every variant of
# each word in GRAM_CASES; recorded at f94266a
GRAM_DIGEST = "0742c16091ac8d993c1f8cbf7f765453920bbb2f642baff6dacc7817da2b621c"


def test_gram_reports_match_recorded(runner):
    """``gram`` payloads and ``quotient-dim`` ranks print, byte for byte,
    what they printed when the digest was recorded."""
    words = ["".join(p) for size in range(2, 7) for p in itertools.product("-+", repeat=size)]
    runs = [["gram", "--sigma", s, "--n", str(n)]
            for s in words if walk_dim(s) for n in range(5, 9)]
    runs += [["quotient-dim", "--sigma", s, "--n", str(n)]
             for word, n in GRAM_CASES for s in _variants(word)]
    assert len(runs) == 42 * 4 + 40
    digest = hashlib.sha256()
    for argv in runs:
        result = run(runner, argv)
        assert result.exit_code == 0
        digest.update("".join(l for l in result.output.splitlines(True)
                              if '"runtime_ms"' not in l).encode())
    assert digest.hexdigest() == GRAM_DIGEST


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


@pytest.mark.parametrize("position", [True, 1.0], ids=["true", "float"])
def test_zmap_strip_position_not_an_int(runner, tmp_path, position):
    """True read as position 1 and exited 0; 1.0 failed in a slice."""
    f = tmp_path / "cap.json"
    f.write_text(json.dumps([["CAP", position, "-"]]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "1", "--j", "0"])
    assert_input_error(result, "--strips", f"position in ['CAP', {position!r}, '-'] is not an int")


@pytest.mark.parametrize("token, form", [
    (["CUP", 1, "-"], "['CUP', i]"),
    (["CAP", 1], "['CAP', i, s]"),
    (["CAP", 1, "-", 0], "['CAP', i, s]"),
    (["FORK_IN"], "['FORK_IN', i]"),
    (["FORK_OUT", 1, 1], "['FORK_OUT', i]"),
    (["FORK_IN_INV", 1, "+"], "['FORK_IN_INV', i]"),
    (["FORK_OUT_INV"], "['FORK_OUT_INV', i]"),
    (["RECT", 0], "['RECT', label, 0, right]"),
    (["RECT", 0, 0, 0, 0], "['RECT', label, 0, right]"),
], ids=["cup", "cap-short", "cap-long", "fork-in", "fork-out", "fork-in-inv", "fork-out-inv",
        "rect-short", "rect-long"])
def test_zmap_strip_token_arity(runner, tmp_path, token, form):
    """A token must hold its kind's fields, no fewer and no more: a short
    one failed with "tuple index out of range", naming neither the token
    nor the field, and extra fields were ignored."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps([token]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "1", "--j", "0"])
    assert_input_error(result, "--strips", f"strip token {token!r} is not of the form {form}")


def test_zmap_empty_strip_token(runner, tmp_path):
    """An empty token failed with "tuple index out of range", naming
    neither the token nor its kind."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps([[]]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--strips", "strip token [] names no kind")


@pytest.mark.parametrize("token", [5, "CUP"], ids=["int", "string"])
def test_zmap_strip_token_not_a_list(runner, tmp_path, token):
    """A token that is not a list failed with "'int' object is not
    iterable", and a string was read as the token of its letters, so "CUP"
    gave "unknown strip token 'C'"."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps([token]))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--strips", f"strip token {token!r} is not a list")


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
        "vertices": [{"id": "a", "colour": 0}, {"id": "b", "colour": 1}, {"id": "c", "colour": 2}],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]], "star": "a", "n": 5}))
    assert_input_error(run(runner, cmd + ["--graph", str(f)]), "--graph", "[3]")


def _a5_with(change):
    obj = build_A(5).to_json()
    change(obj)
    return obj


@pytest.mark.parametrize("obj, named", [
    (_a5_with(lambda o: o["vertices"].append(dict(o["vertices"][0]))), "'0,0' is listed twice"),
    (_a5_with(lambda o: o["edges"].append(["0,0", "9,9"])), "names '9,9'"),
    (_a5_with(lambda o: o.update(star="9,9")), "star '9,9'"),
    (_a5_with(lambda o: o["vertices"][1].update(colour=7)), "vertex '0,1' has colour 7"),
    (_a5_with(lambda o: [v.update(colour=0) for v in o["vertices"]]), "along edge ['0,0', '1,0']"),
    (5, "graph 5 is not an object"),
    ([], "graph [] is not an object"),
    (_a5_with(lambda o: o.update(vertices=5)), "vertices 5 is not a list"),
    (_a5_with(lambda o: o.update(edges=5)), "edges 5 is not a list"),
    (_a5_with(lambda o: o["vertices"].append(5)), "vertices row 5 is not an object"),
    (_a5_with(lambda o: o["edges"].append(5)), "edge 5 is not a pair of vertices"),
    (_a5_with(lambda o: o["edges"].append(["0,0", "1,0", "0,1"])),
     "edge ['0,0', '1,0', '0,1'] is not a pair"),
    (_a5_with(lambda o: o["vertices"].append({"id": [1], "colour": 0})),
     "vertex id [1] is not a string or an int"),
    (_a5_with(lambda o: o["edges"].append([[1], "0,0"])), "names [1], which is not a vertex"),
    (_a5_with(lambda o: o.update(star=[1])), "star [1] is not a vertex"),
], ids=["repeated-vertex", "unknown-edge-end", "unknown-star", "colour-7", "colours-all-0",
        "int", "list", "vertices-int", "edges-int", "vertex-row-int", "edge-int",
        "edge-three-ends", "vertex-id-list", "edge-end-list", "star-list"])
def test_graph_checked_when_read(runner, tmp_path, obj, named):
    """A repeated vertex and a colour off {0, 1, 2} or not rising by 1 mod 3
    along an edge exited 0; an unknown edge end or star read as a missing
    key; a field of the wrong shape failed with a message that named no
    field ("'int' object is not subscriptable", "cannot unpack
    non-iterable int object", "unhashable type: 'list'")."""
    f = tmp_path / "A5.json"
    f.write_text(json.dumps(obj))
    assert_input_error(run(runner, ["cells", "solve", "--graph", str(f)]), "--graph", named)


@pytest.mark.parametrize("cmd", [["cells", "solve"], ["dims", "--i", "1", "--j", "0"]],
                         ids=lambda c: c[0])
def test_graph_with_wrong_coxeter_number(runner, tmp_path, cmd):
    """A(7) declared at n = 8: the certified bracket puts its Perron-Frobenius
    eigenvalue at [3] of n = 7, which is not [3] of n = 8."""
    f = tmp_path / "A7.json"
    f.write_text(json.dumps(dict(build_A(7).to_json(), n=8)))
    assert_input_error(run(runner, cmd + ["--graph", str(f)]), "--graph", "[3]")


@pytest.mark.parametrize("cmd", [["cells", "solve"], ["dims", "--i", "1", "--j", "1"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("n", [0, -5, 3, math.inf, 5.0, True],
                         ids=["0", "-5", "3", "inf", "5.0", "true"])
def test_graph_with_bad_n(runner, tmp_path, cmd, n):
    """A ``--graph`` n must be an int >= 4, as ``--n`` must: 0 and inf
    divided by zero, and -5 ran as A(5)."""
    f = tmp_path / "A5.json"
    f.write_text(json.dumps(dict(build_A(5).to_json(), n=n)))
    assert_input_error(run(runner, cmd + ["--graph", str(f)]), "--graph", "n >= 4")


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_zmap_label_not_finite(runner, tmp_path, part, bad):
    """A label coefficient that is not finite is refused; the chops would
    otherwise drop it from the result and exit 0."""
    g = build_A(5)
    row = dict(P.terms_to_json({P.enumerate_pairs(g, 1, 1)[0]: 1.0 + 0.5j})[0], **{part: bad})
    (tmp_path / "word.json").write_text(json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(json.dumps([{"level": [1, 1], "terms": [row]}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert_input_error(result, "--labels", "not finite")


def _web_rows(web, change):
    rows = WebSum.from_web(web).to_json()
    change(rows[0]["web"])
    return rows


@pytest.mark.parametrize("rows, named", [
    (_web_rows(identity_web("-"), lambda w: w.update(edges=[[[0.0, -1.0], [True, -1]]])),
     "port [0.0, -1.0] is not two ints"),
    (_web_rows(identity_web("-"), lambda w: w.update(edges=[[[0, -1], [True, -1]]])),
     "port [True, -1] is not two ints"),
    (_web_rows(wgen_web("--", 0), lambda w: w["edges"][0][1].__setitem__(1, 1.0)),
     "port [0, 1.0] is not two ints"),
    (_web_rows(wgen_web("--", 0), lambda w: w["vertices"][0].update(id=0.0)),
     "vertex id 0.0 is not an int"),
    (_web_rows(identity_web("-"), lambda w: w["edges"][0][0].append(7)),
     "port [0, -1, 7] is not two ints"),
    (_web_rows(identity_web("-"), lambda w: w.update(loops=1.0)), "loops 1.0 is not an int"),
    (_web_rows(identity_web("-"), lambda w: w["edges"][0].append([1, -1])),
     "edge [[0, -1], [1, -1], [1, -1]] is not two ports"),
    (_web_rows(identity_web("-"), lambda w: w["edges"][0].pop()), "edge [[0, -1]] is not two ports"),
    (_web_rows(identity_web("-"), lambda w: w.update(edges=[5])), "edge 5 is not two ports"),
    (_web_rows(identity_web("-"), lambda w: w.update(edges=["ab"])), "edge 'ab' is not two ports"),
    (_web_rows(identity_web("-"), lambda w: w["edges"][0].__setitem__(1, 5)), "port 5 is not two ints"),
    (_web_rows(wgen_web("--", 0), lambda w: w["vertices"].__setitem__(0, 5)),
     "vertex 5 is not an object"),
], ids=["float-port", "bool-port", "float-slot", "float-vertex-id", "three-field-port",
        "float-loops", "three-port-edge", "one-port-edge", "int-edge", "string-edge", "int-port",
        "int-vertex"])
def test_normalize_web_fields_not_ints(runner, tmp_path, rows, named):
    """Vertex ids, port fields and loops went through int(), so an edge
    [[0.0, -1.0], [true, -1]] read as the identity and exited 0, and a
    port's fields after the second were ignored.  An edge of three ports
    failed to unpack, and an edge or port that is not a list failed on
    len(); neither message named the edge.  A vertex that is not an object
    failed on its subscript, naming neither the vertex nor the field."""
    f = tmp_path / "sum.json"
    f.write_text(json.dumps(rows))
    assert_input_error(run(runner, ["normalize", "--in", str(f)]), "--in", named)


@pytest.mark.parametrize("cmd", ["normalize", "trace", "decompose"])
@pytest.mark.parametrize("change, named", [
    (lambda r: r.update(web=5), "web 5 is not an object"),
    (lambda r: r.update(web=[]), "web [] is not an object"),
    (lambda r: r.update(coeff={"laurent": 5}), "coeff {'laurent': 5} has no laurent object"),
    (lambda r: r.update(coeff={"laurent": []}), "coeff {'laurent': []} has no laurent object"),
    (lambda r: r.update(coeff=5), "coeff 5 has no laurent object"),
    (lambda r: r["web"].update(vertices=5), "vertices 5 is not a list"),
    (lambda r: r["web"].update(edges=5), "edges 5 is not a list"),
    (lambda r: r["web"].update(edges={}), "edges {} is not a list"),
    (lambda r: r["web"].update(boundary=5), "boundary 5 is not an object of top and bot strings"),
    (lambda r: r["web"]["boundary"].update(top=5),
     "boundary {'top': 5, 'bot': '+'} is not an object of top and bot strings"),
    (lambda r: r.update(coeff={"laurent": {"x": "1"}}), "laurent exponent 'x' is not an integer"),
    (lambda r: r.update(coeff={"laurent": {"0": []}}),
     "laurent coefficient [] of t^0 is not an int or a fraction"),
    (lambda r: r.update(coeff={"laurent": {"0": 1.5}}),
     "laurent coefficient 1.5 of t^0 is not an int or a fraction"),
    (lambda r: r.update(coeff={"laurent": {"0": "1/0"}}),
     "laurent coefficient '1/0' of t^0 is not an int or a fraction"),
], ids=["int-web", "list-web", "int-laurent", "list-laurent", "int-coeff", "int-vertices",
        "int-edges", "object-edges", "int-boundary", "int-top", "letter-exponent",
        "list-coefficient", "float-coefficient", "zero-denominator"])
def test_web_sum_row_field_of_the_wrong_type(runner, tmp_path, cmd, change, named):
    """A web or a laurent that is not an object reached ``obj.get`` or
    ``.items()`` and failed with an AttributeError traceback and exit 1.  A
    coeff that is not an object, or vertices or edges that are not lists,
    failed on a subscript or on iteration, naming no field.  So did a
    boundary that is not an object, and a laurent exponent or coefficient
    that int() or Fraction() refused; a top of 5 was read as the sign word
    "5", a coefficient 1.5 was read as 3/2, and "1/0" raised
    ZeroDivisionError with a traceback."""
    rows = identity(1).to_json()
    change(rows[0])
    f = tmp_path / "sum.json"
    f.write_text(json.dumps(rows))
    assert_input_error(run(runner, [cmd, "--in", str(f)]), "--in", named)


@pytest.mark.parametrize("rows", [{}, 5, [5], []], ids=["object", "int", "int-row", "empty"])
def test_web_sum_not_a_list_of_rows(runner, tmp_path, rows):
    """A file holding {} was read as the empty list, so the error said
    "empty web sum"; 5, or a row 5, failed on iteration or on a subscript,
    naming nothing."""
    f = tmp_path / "sum.json"
    f.write_text(json.dumps(rows))
    assert_input_error(run(runner, ["normalize", "--in", str(f)]), "--in",
                       "web sum is not a list of one or more {coeff, web} objects")


@pytest.mark.parametrize("strips", [{}, 5, "CUP"], ids=["object", "int", "string"])
def test_zmap_strips_not_a_list(runner, tmp_path, strips):
    """A --strips file holding {} was read as the empty word, so at level
    (0, 0) the command exited 0; 5 failed with "'int' object is not
    iterable", and "CUP" was read as the tokens of its letters."""
    f = tmp_path / "word.json"
    f.write_text(json.dumps(strips))
    result = run(runner, ["zmap", "--strips", str(f), "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--strips", f"strips {strips!r} is not a list")


@pytest.mark.parametrize("labels", [{}, 5], ids=["object", "int"])
def test_zmap_labels_not_a_list(runner, tmp_path, labels):
    """A --labels file holding {} was read as no labels, so the error blamed
    --strips; 5 failed with "'int' object is not iterable"."""
    (tmp_path / "word.json").write_text(json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert_input_error(result, "--labels", f"labels {labels!r} is not a list")


@pytest.mark.parametrize("row", [5, [1, 1]], ids=["int", "list"])
def test_zmap_labels_row_not_an_object(runner, tmp_path, row):
    """A --labels row that is not an object failed on its subscript, with
    a TypeError such as "'int' object is not subscriptable" that named no
    row."""
    (tmp_path / "word.json").write_text("[]")
    (tmp_path / "labels.json").write_text(json.dumps([row]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--labels", f"labels row {row!r} is not an object")


@pytest.mark.parametrize("p1, named", [
    ([[0.0, 1], [5, 1]], "step [0.0, 1] of p1"),
    ([[0, True], [5, 1]], "step [0, True] of p1"),
    ([[0, 1, 0], [5, 1]], "step [0, 1, 0] of p1"),
], ids=["float-edge", "bool-direction", "three-field-step"])
def test_zmap_label_step_not_ints(runner, tmp_path, p1, named):
    """The steps of a label path went through int(), so a float edge or a
    bool direction was read as a step and the command exited 0; a step of
    three fields failed to unpack, naming no field."""
    row = {"p1": p1, "p2": [[0, 1], [5, 1]], "re": 1.0, "im": 0.0}
    (tmp_path / "word.json").write_text(json.dumps([list(t) for t in P.word_insert()]))
    (tmp_path / "labels.json").write_text(json.dumps([{"level": [1, 1], "terms": [row]}]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "1", "--j", "1"])
    assert_input_error(result, "--labels", named, "is not an int pair")


_TERM = {"p1": [], "p2": [], "re": 1.0, "im": 0.0}  # the one path pair at level (0, 0)


@pytest.mark.parametrize("row, named", [
    ({"level": 5, "terms": []}, "label level 5 is not two non-negative ints"),
    ({"level": [0], "terms": []}, "label level [0] is not"),
    ({"level": [0, 0, 1], "terms": []}, "label level [0, 0, 1] is not"),
    ({"level": ["a", "b"], "terms": []}, "label level ['a', 'b'] is not"),
    ({"level": [0, 0], "terms": 5}, "terms 5 is not a list of objects"),
    ({"level": [0, 0], "terms": [5]}, "terms [5] is not a list of objects"),
    ({"level": [0, 0], "terms": [dict(_TERM, p1=5)]}, "p1 5 is not a list of steps"),
    ({"level": [0, 0], "terms": [dict(_TERM, re="1")]}, "re '1' is not a number"),
    ({"level": [0, 0], "terms": [dict(_TERM, re=True)]}, "re True is not a number"),
    ({"level": [0, 0], "terms": [dict(_TERM, im=10**400)]}, "im 1000"),
], ids=["level-int", "level-one", "level-three", "level-strings", "terms-int",
        "terms-row-int", "p1-int", "re-string", "re-bool", "im-overflows"])
def test_zmap_label_field_malformed(runner, tmp_path, row, named):
    """A --labels field of the wrong shape one level below the row failed
    with a message that named no field ("'int' object is not iterable",
    "level_signs() missing 1 required positional argument"), an ``re`` of
    true was read as 1.0, and an int too large for a float overflowed."""
    (tmp_path / "word.json").write_text("[]")
    (tmp_path / "labels.json").write_text(json.dumps([row]))
    result = run(runner, ["zmap", "--strips", str(tmp_path / "word.json"),
                          "--labels", str(tmp_path / "labels.json"),
                          "--n", "5", "--i", "0", "--j", "0"])
    assert_input_error(result, "--labels", named)


def test_decompose_round_trip_failure(runner, tmp_path, monkeypatch):
    def broken(x):
        raise ArithmeticError("round-trip check failed")

    monkeypatch.setattr("a2planar.hecke.decompose", broken)
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
    monkeypatch.setattr("a2planar.algebra.check_hecke", lambda m: [("h1", True), ("h2", False)])
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
    seen[" ".join(argv)] = [code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]
print(json.dumps(seen))
"""


def _imports_after(*argvs, modules=("numpy", "scipy")) -> dict:
    """For each argv run in turn in one fresh process: its exit code and
    which of ``modules`` are imported once it has run."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs),
                          json.dumps(modules)],
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


_DIAGRAM_MODULES = ("a2planar.algebra", "a2planar.rewrite", "a2planar.scalar", "a2planar.hecke",
                    "a2planar.web", "a2planar.states")


@pytest.mark.parametrize("argv", [["quotient-dim", "--sigma", "--++", "--n", "5"],
                                  ["gram", "--sigma", "--++", "--n", "5", "--rank"],
                                  ["gram", "--sigma", "--++", "--n", "5"]],
                         ids=["quotient-dim", "gram-rank", "gram"])
def test_ranks_load_no_web_module(argv):
    """``quotient-dim`` and ``gram``, with or without ``--rank``, take the
    Gram matrix and its rank from ``states`` and load none of ``web``,
    ``rewrite`` and ``algebra``, so they build no web."""
    modules = ("a2planar.web", "a2planar.rewrite", "a2planar.algebra", "a2planar.states")
    assert _imports_after(argv, modules=modules) == {" ".join(argv): (0, ["a2planar.states"])}


def test_commands_import_only_the_diagram_modules_they_run(tmp_path):
    """``--help`` and the path commands load none of ``algebra``,
    ``rewrite``, ``scalar``, ``hecke``, ``web`` and ``states``; the diagram
    commands load ``hecke`` only for ``decompose`` (and ``relcheck --suite
    f13``)."""
    word = tmp_path / "word.json"
    word.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    graph = tmp_path / "A5.json"
    graph.write_text(json.dumps(build_A(5).to_json()))
    path_argvs = [
        ["--help"],
        ["dims", "--n", "5", "--i", "1", "--j", "1"],
        ["graph", "build-a", "--n", "5"],
        ["cells", "solve", "--n", "5"],
        ["connection", "check", "--n", "5"],
        ["flat", "check", "--n", "5"],
        ["zmap", "--strips", str(word), "--n", "5", "--i", "1", "--j", "2"],
        ["cells", "solve", "--graph", str(graph)],
        ["connection", "check", "--graph", str(graph)],
    ]
    assert _imports_after(*path_argvs, modules=_DIAGRAM_MODULES) == {
        " ".join(a): (0, []) for a in path_argvs}
    f = _write_websum(tmp_path / "x.json", WebSum.from_web(wgen_web("---", 1)))
    diagram_argvs = [
        ["normalize", "--in", f],
        ["trace", "--in", f],
        ["gram", "--sigma", "--++", "--n", "5"],
        ["gram", "--sigma", "--++", "--n", "5", "--rank"],
        ["quotient-dim", "--sigma", "--++", "--n", "5"],
        ["relcheck", "--suite", "hecke", "--m", "3"],
    ]
    assert _imports_after(*diagram_argvs, modules=("a2planar.hecke",)) == {
        " ".join(a): (0, []) for a in diagram_argvs}
    # the probe sees a module that a command does load
    decompose = ["decompose", "--in", f]
    assert _imports_after(decompose, modules=("a2planar.hecke",)) == {
        " ".join(decompose): (0, ["a2planar.hecke"])}


@pytest.mark.parametrize("argv, loaded", [
    (["dims", "--n", "5", "--i", "1", "--j", "1"], []),
    (["graph", "build-a", "--n", "5"], []),
    (["cells", "solve", "--n", "5"], []),
    (["connection", "check", "--n", "5"], []),
    (["flat", "check", "--n", "5"], ["numpy"]),
    (["zmap", "--strips", "{word}", "--n", "5", "--i", "1", "--j", "2"], []),
    (["cells", "solve", "--graph", "{graph}"], []),
    (["connection", "check", "--graph", "{graph}"], []),
    (["dims", "--graph", "{graph}", "--i", "1", "--j", "1"], []),
], ids=["dims", "graph-build-a", "cells-solve", "connection-check", "flat-check", "zmap",
        "cells-solve-json", "connection-check-json", "dims-json"])
def test_path_commands_without_cells_leave_scipy_out(argv, loaded, tmp_path):
    """No path command loads scipy, and only ``flat check`` loads numpy, for
    its path-pair blocks.  ``cells solve`` and ``connection check`` certify
    the closed forms of a ``--n`` graph and solve the cells of a ``--graph``
    file without numpy, ``zmap`` evaluates its strip word and prints its
    terms without it, and ``dims`` and ``graph build-a`` load no numpy, also
    when a ``--graph`` file needs its Perron-Frobenius weights."""
    word = tmp_path / "word.json"
    word.write_text(json.dumps([list(t) for t in P.word_w(1, 2, 0)]))
    graph = tmp_path / "A5.json"
    graph.write_text(json.dumps(build_A(5).to_json()))
    argv = [a.format(word=word, graph=graph) for a in argv]
    assert _imports_after(argv) == {" ".join(argv): (0, loaded)}
