"""The layers the traced run measures.

Each layer is a module of ``a2planar`` and the public functions of it whose
calls are timed.  ``PREDICTED`` lists, per workload, the layers that should
do most of its work after import; NOTES.md maps each layer to the
end-to-end metric it should move.
"""

LAYERS = {
    "scalar": ("a2planar.scalar",
               ("Laurent.__mul__", "Cyclo.__mul__", "Cyclo.inv", "CycloField.from_laurent")),
    "web": ("a2planar.web", ("Web.embedding", "Web.canonical_key", "Web.compose")),
    "rewrite": ("a2planar.rewrite",
                ("enumerate_basis", "is_reduced", "find_redexes", "normalize")),
    "algebra": ("a2planar.algebra", ("gram", "cyclo_rank", "mult", "trace_right")),
    "hecke": ("a2planar.hecke", ("decompose", "evaluate")),
    "graph": ("a2planar.graph",
              ("pf_eigen", "solve_cells", "boltzmann_U", "hecke_operator")),
    "pathalg": ("a2planar.pathalg",
                ("make_U", "connection", "basis_change", "horizontal_include",
                 "flatness_check", "present_Z")),
}

# Packages whose import time `python -X importtime` splits out of set-up.
IMPORT_PACKAGES = ("numpy", "scipy", "sympy", "click", "a2planar")

# Counters on the least-squares call bound in a2planar.graph.
LSQ_COUNTERS = ("graph.lsq.calls", "graph.lsq.nfev")

# The span that encloses one whole `a2planar.cli.main` call.
ROOT = "cli.command"

# Listed functions that no CLI command calls, so every workload records 0.
UNREACHED = {
    "pathalg.make_U": "no CLI command calls make_U; only the tests do",
}

PREDICTED = {
    "diagram": ("scalar", "web", "rewrite", "algebra"),
    "decompose": ("hecke",),
    "path": ("graph", "pathalg"),
    "path-json": ("graph", "pathalg"),
}


def functions():
    """Yield ``(metric prefix, module, qualname)`` for every traced function."""
    for layer, (module, names) in LAYERS.items():
        for qualname in names:
            yield f"{layer}.{qualname}", module, qualname


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics():
    """``(name, unit)`` of every metric the traced run prints."""
    out = [(f"import.{pkg}_ms", "ms") for pkg in IMPORT_PACKAGES]
    for name, _, _ in functions():
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    out += [(name, "count") for name in LSQ_COUNTERS]
    out += [(f"{ROOT}.self_ms", "ms"), ("trace.wall_s", "s")]
    return out
