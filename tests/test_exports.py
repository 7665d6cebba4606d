"""Every name that an ``a2planar`` module lists in ``__all__`` is bound in
it, so a deletion that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import a2planar

MODULES = sorted(m.name for m in pkgutil.iter_modules(a2planar.__path__))


def test_every_library_module_is_listed():
    assert {"algebra", "graph", "hecke", "oracle", "pathalg", "rewrite", "scalar",
            "states", "web"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_bound(name):
    module = importlib.import_module(f"a2planar.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
