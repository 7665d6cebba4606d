"""The benchmark's traced run names functions of ``a2planar`` by module and
qualified name (``perfbench/layers.py``).  Each must exist under that name,
defined at that place, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    names = list(layers.functions())
    assert names
    for _, module, qualname in names:
        owner = importlib.import_module(module)
        *outer, name = qualname.split(".")
        for part in outer:
            owner = vars(owner)[part]
        fn = vars(owner).get(name)
        assert inspect.isfunction(fn), f"{module}.{qualname} is not a function"
        assert (fn.__module__, fn.__qualname__) == (module, qualname)
