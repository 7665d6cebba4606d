"""The third-party packages imported under src/ are exactly the declared
runtime dependencies in pyproject.toml."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def imported_packages() -> set:
    """Top-level names of every absolute import in src/, at any depth."""
    names = set()
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(dirpath, fname)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "a2planar"}


def declared_packages() -> set:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}


def test_imports_match_declared_dependencies():
    assert imported_packages() == declared_packages()
