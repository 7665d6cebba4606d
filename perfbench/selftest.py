"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Runs one traced pass of every workload and one untraced diagram pass with a
deliberately wrong reference, so it takes a few minutes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def bench(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run.main([str(a) for a in argv])
    if rc != 0:
        raise AssertionError(f"run.py {argv} exited {rc}")
    return json.loads(out.getvalue().splitlines()[-1])


class SelfTimes(unittest.TestCase):
    SPANS = [
        ["cli.command", 0, 100, -1],
        ["algebra.gram", 10, 40, 0],
        ["rewrite.enumerate_basis", 20, 30, 1],
        ["web.Web.compose", 50, 60, 0],
        ["web.Web.compose", 60, 75, 0],
        ["web.Web.embedding", 62, 63, 4],
    ]

    def test_self_time_is_duration_minus_child_cover(self):
        self.assertEqual(run.self_times(self.SPANS), [100 - 30 - 25, 20, 10, 10, 14, 1])

    def test_overlapping_children_are_covered_once(self):
        spans = [["a", 0, 10, -1], ["b", 2, 6, 0], ["c", 4, 8, 0]]
        self.assertEqual(run.self_times(spans), [4, 4, 4])

    def test_layer_metrics_sum_self_times(self):
        m = run.layer_metrics([{"spans": self.SPANS, "counters": {"graph.lsq.nfev": 7}}] * 2)
        self.assertEqual(m["web.Web.compose.calls"], 4)
        self.assertEqual(m["web.Web.compose.self_ms"], 2 * 24 / 1e6)
        self.assertEqual(m["web.self_ms"], 2 * 25 / 1e6)
        self.assertEqual(m["cli.command.self_ms"], 2 * 45 / 1e6)
        self.assertEqual(m["graph.lsq.nfev"], 14)
        self.assertEqual(m["graph.lsq.calls"], 0)
        total = sum(m[f"{layer}.self_ms"] for layer in layers.LAYERS) + m["cli.command.self_ms"]
        self.assertAlmostEqual(total, 2 * 100 / 1e6)


class AliasComplete(unittest.TestCase):
    def test_names_imported_elsewhere_are_wrapped(self):
        check = ("import tracer; tracer.install()\n"
                 "from a2planar import algebra, cli, graph, hecke, pathalg, scalar\n"
                 "names = [cli.gram_rows, cli.solve_cells, cli.hecke_decompose, cli.normalize,\n"
                 "         algebra.enumerate_basis, hecke.enumerate_basis, pathalg.boltzmann_U,\n"
                 "         pathalg.pf_eigen, scalar.Laurent.__rmul__, scalar.Cyclo.__rmul__,\n"
                 "         graph.least_squares]\n"
                 "print(all(hasattr(f, '__wrapped__') for f in names))\n")
        out = subprocess.run([sys.executable, "-c", check], env=run.ENV, cwd=run.HERE,
                             capture_output=True, text=True, check=True).stdout
        self.assertEqual(out.strip(), "True")


class PositiveControl(unittest.TestCase):
    def test_wrong_reference_fails(self):
        real = workloads.walk_dim_truncated
        with mock.patch.object(workloads, "walk_dim_truncated", lambda s, n: real(s, n) + 1):
            doc = bench("--workload", "diagram", "--seed", SEED, "--seconds", 1)
        self.assertFalse(doc["correct"])
        self.assertEqual(doc["failed"], len(workloads.BASIS_CASES))
        self.assertGreater(doc["failed"] / doc["attempted"], 0)
        with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({k: v["unit"] for k, v in doc["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})


class TracedWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.docs = {w: bench("--workload", w, "--seed", SEED, "--seconds", 1, "--trace", 1)
                    for w in workloads.WORKLOADS}

    def value(self, workload, name):
        return self.docs[workload]["metrics"][name]["value"]

    def test_runs_are_correct(self):
        for w, doc in self.docs.items():
            self.assertTrue(doc["correct"], w)
            self.assertEqual(doc["failed"], 0, w)

    def test_every_function_works_where_predicted(self):
        for name, _, _ in layers.functions():
            where = [w for w, ls in layers.PREDICTED.items() if layers.layer_of(name) in ls]
            calls = {w: self.value(w, f"{name}.calls") for w in workloads.WORKLOADS}
            if name in layers.UNREACHED:
                self.assertEqual(set(calls.values()), {0}, name)
            else:
                self.assertTrue(any(calls[w] > 0 for w in where), f"{name}: {calls}")

    def test_predicted_layers_cover_most_traced_time(self):
        for w, predicted in layers.PREDICTED.items():
            total = self.value(w, "cli.command.self_ms") + sum(
                self.value(w, f"{layer}.self_ms") for layer in layers.LAYERS)
            covered = sum(self.value(w, f"{layer}.self_ms") for layer in predicted)
            self.assertGreater(covered, 0.5 * total, w)

    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(per_layer, layers.per_layer_metrics())
        for doc in self.docs.values():
            self.assertEqual([(k, v["unit"]) for k, v in doc["metrics"].items()], per_layer)


if __name__ == "__main__":
    unittest.main()
