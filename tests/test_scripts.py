"""Smoke runs of the scripts in scripts/, as a user runs them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_residual_sweep():
    lines = run_script("residual_sweep.py", "--nmax", "5", "--depth", "1").splitlines()
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [4, 5]
    for row in rows:
        assert len(row) == 7
        assert all(float(v) < 1e-8 for v in row[1:]), row


def test_hexagon_matrix():
    out = run_script("hexagon_matrix.py", "--n", "5")
    assert out.startswith("n = 5:")
    assert "basis: 3 paths" in out


def test_gram_routes():
    lines = run_script("gram_routes.py", "--max-len", "5").splitlines()
    assert lines[-2] == "length 5: 10 words, 90 entries"
    assert lines[-1] == "0 mismatches"
