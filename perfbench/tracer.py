"""Run one `a2planar` CLI command with its layer functions traced.

    python3 perfbench/tracer.py SPANS.json ARG...

is `a2planar ARG...` with a wrapper around every function listed in
``layers.LAYERS``.  Each call records a span ``[name, start_ns, end_ns,
parent]``; ``parent`` is the index of the enclosing span, or -1.  Index 0 is
the ``cli.command`` span around the whole ``a2planar.cli.main`` call.  The
spans and the least-squares counters stay in memory and are written to
SPANS.json when the command ends.  Nothing under ``src/`` changes: the
wrappers are bound in place of the originals at run time.
"""

import functools
import importlib
import json
import sys
import time

import layers

_now = time.perf_counter_ns
spans = []
_stack = []
counters = dict.fromkeys(layers.LSQ_COUNTERS, 0)


def traced(name, fn):
    """``fn`` wrapped so that each call records a span called ``name``."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        idx = len(spans)
        spans.append([name, _now(), 0, _stack[-1] if _stack else -1])
        _stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            _stack.pop()
            spans[idx][2] = _now()

    return call


def counted_least_squares(fn):
    """``scipy.optimize.least_squares`` that counts calls and objective evaluations."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        sol = fn(*args, **kwargs)
        counters["graph.lsq.calls"] += 1
        counters["graph.lsq.nfev"] += int(sol.nfev)
        return sol

    return call


def _rebind(namespace, wrappers):
    for attr, value in list(vars(namespace).items()):
        wrapper = wrappers.get(id(value))
        if wrapper is not None and wrapper[0] is value:
            setattr(namespace, attr, wrapper[1])


def install():
    """Wrap every traced function under each name that ``a2planar`` binds it to.

    Functions imported by name into other modules (``cli.gram_rows``,
    ``algebra.enumerate_basis``, ``pathalg.pf_eigen``, ...) and class
    aliases such as ``Laurent.__rmul__ = __mul__`` are rebound too, so a
    call is traced whichever name it goes through.
    """
    importlib.import_module("a2planar.cli")
    wrappers = {}
    for name, module, qualname in layers.functions():
        owner = importlib.import_module(module)
        for part in qualname.split(".")[:-1]:
            owner = getattr(owner, part)
        fn = vars(owner)[qualname.rsplit(".", 1)[-1]]
        wrappers[id(fn)] = (fn, traced(name, fn))
    graph = sys.modules["a2planar.graph"]
    graph.least_squares = counted_least_squares(graph.least_squares)
    for modname, module in list(sys.modules.items()):
        if modname != "a2planar" and not modname.startswith("a2planar."):
            continue
        _rebind(module, wrappers)
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("a2planar"):
                _rebind(value, wrappers)


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    install()
    from a2planar.cli import main as cli_main

    sys.argv = ["a2planar", *argv]
    code = 0
    spans.append([layers.ROOT, _now(), 0, -1])
    _stack.append(0)
    try:
        cli_main()
    except SystemExit as exc:
        code = exc.code
    finally:
        spans[0][2] = _now()
        with open(out, "w") as fh:
            json.dump({"spans": spans, "counters": counters}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
