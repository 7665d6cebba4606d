"""End-to-end benchmark of the `a2planar` command line.

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 15 --trace 0

Run it from anywhere; it uses the checkout it sits in (``src/`` is put on
``PYTHONPATH`` of every child).  It writes the workload's seeded inputs,
then runs the workload's commands one after another as a closed loop, each
in its own process, timed from process start to exit.  Every command's
output is checked against an independent reference.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: one pass of the workload, the sum over its commands of each
  command's median wall time.  After the first full pass the loop goes on
  while the next command still fits in ``--seconds``.
* ``setup_s``: median wall time of ``a2planar --help``, a process that
  imports the CLI and does no work.
* ``peak_rss_mb``: the largest ``ru_maxrss`` among the workload's commands.

Commands that exit non-zero or fail their check are counted in ``failed``
(``failed / attempted`` is the failure share).

``--trace 1`` runs one pass with every command under ``tracer.py`` and
prints the per-layer metrics of ``layers.per_layer_metrics()``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".perfbench_work")
TRACER = os.path.join(HERE, "tracer.py")
LAUNCH = "import sys; from a2planar.cli import main; sys.argv[0] = 'a2planar'; main()"
SETUP_RUNS = 3
RUN_LIMIT_S = 170  # every command is killed once the run reaches this age

# A fixed hash seed keeps set and dict order, and with it sympy's
# elimination order, the same in every child; --seed varies the inputs.
ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

sys.path[:0] = [HERE, SRC]
import layers  # noqa: E402


class Result(NamedTuple):
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


def run_cli(argv, workdir, deadline, prefix=(sys.executable, "-c", LAUNCH)) -> Result:
    """Run ``a2planar ARGV`` in a fresh process; wall time from spawn to exit."""
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*prefix, *argv], stdout=out, stderr=err, env=ENV, cwd=workdir)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, wall, usage.ru_maxrss / 1024, out.read(), err.read())


def passed(cmd, r: Result) -> bool:
    try:
        ok = cmd.check(r.rc, r.out)
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    if not ok:
        print(f"FAILED (exit {r.rc}): a2planar {' '.join(cmd.argv)}\n{r.err[-2000:]}",
              file=sys.stderr)
    return ok


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def setup_time(workdir, deadline, tally: Tally) -> float:
    walls = []
    for _ in range(SETUP_RUNS):
        r = run_cli(["--help"], workdir, deadline)
        tally.add(r.rc == 0 and r.out.startswith("Usage: a2planar"))
        walls.append(r.wall_s)
    return statistics.median(walls)


def measure(cmds, seconds, workdir, deadline, tally: Tally) -> dict:
    """Closed loop over ``cmds``: one full pass, then more while they fit."""
    walls = [[] for _ in cmds]
    peak = 0.0
    start = time.monotonic()
    for k in itertools.count():
        i = k % len(cmds)
        if k >= len(cmds) and time.monotonic() - start + walls[i][-1] > seconds:
            break
        r = run_cli(cmds[i].argv, workdir, deadline)
        tally.add(passed(cmds[i], r))
        walls[i].append(r.wall_s)
        peak = max(peak, r.rss_mb)
    for cmd, w in zip(cmds, walls):
        print(f"{statistics.median(w):8.3f} s x{len(w)}  a2planar {' '.join(cmd.argv)}",
              file=sys.stderr)
    return {
        "wall_s": (sum(statistics.median(w) for w in walls), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


# -- traced run -----------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for idx, (_, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for idx, (_, t0, t1, _) in enumerate(spans):
        covered, reach = 0, t0
        for c0, c1 in sorted(children[idx]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(t1 - t0 - covered)
    return out


def layer_metrics(traces) -> dict:
    """Per-function calls and self time, per-layer self time and counters,
    summed over the traces (``{"spans", "counters"}`` of each command)."""
    calls, self_ns, counters = defaultdict(int), defaultdict(int), defaultdict(int)
    for trace in traces:
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        for name, value in trace["counters"].items():
            counters[name] += value
    out = {}
    for name, _, _ in layers.functions():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    for layer in layers.LAYERS:
        out[f"{layer}.self_ms"] = sum(v for k, v in self_ns.items()
                                      if layers.layer_of(k) == layer and k != layers.ROOT) / 1e6
    for name in layers.LSQ_COUNTERS:
        out[name] = counters[name]
    out[f"{layers.ROOT}.self_ms"] = self_ns[layers.ROOT] / 1e6
    return out


def import_times(workdir, deadline) -> dict:
    """Median over SETUP_RUNS of each package's own import time (the summed
    self times of its modules in ``python -X importtime``)."""
    runs = defaultdict(list)
    for _ in range(SETUP_RUNS):
        r = run_cli(["import a2planar.cli"], workdir, deadline,
                    prefix=(sys.executable, "-X", "importtime", "-c"))
        if r.rc != 0:
            raise RuntimeError(f"import a2planar.cli failed:\n{r.err[-2000:]}")
        own = defaultdict(int)
        for line in r.err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            module = parts[2].strip()
            pkg = module.split(".", 1)[0]
            own[pkg] += int(parts[0].rsplit(":", 1)[1])
        for pkg in layers.IMPORT_PACKAGES:
            runs[pkg].append(own[pkg] / 1000)
    return {f"import.{pkg}_ms": statistics.median(v) for pkg, v in runs.items()}


def traced_pass(cmds, workdir, deadline, tally: Tally) -> dict:
    traces, wall = [], 0.0
    spans_file = os.path.join(workdir, "spans.json")
    for cmd in cmds:
        r = run_cli(cmd.argv, workdir, deadline, prefix=(sys.executable, TRACER, spans_file))
        tally.add(passed(cmd, r))
        wall += r.wall_s
        if os.path.exists(spans_file):  # absent only if the tracer itself failed
            with open(spans_file) as fh:
                traces.append(json.load(fh))
            os.remove(spans_file)
    metrics = import_times(workdir, deadline)
    metrics.update(layer_metrics(traces))
    metrics["trace.wall_s"] = wall
    return metrics


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "a2planar", "cli.py")):
        print(f"no a2planar sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        def cli(cli_argv):
            r = run_cli(cli_argv, workdir, deadline)
            if r.rc != 0:
                raise RuntimeError(f"input set-up failed: a2planar {' '.join(cli_argv)}\n{r.err}")
            return r.out

        rng = random.Random(f"{args.workload}:{args.seed}")
        cmds = workloads.WORKLOADS[args.workload](rng, workdir, cli)
        tally = Tally()
        if args.trace:
            values = traced_pass(cmds, workdir, deadline, tally)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.per_layer_metrics()}
        else:
            setup = setup_time(workdir, deadline, tally)
            values = measure(cmds, args.seconds, workdir, deadline, tally)
            values["setup_s"] = (setup, "s")
            metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
