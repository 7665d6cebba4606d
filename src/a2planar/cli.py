"""Command-line front end: runs the identity suites and computations
with machine-readable JSON reports.

Every subcommand prints a report of the form::

    {"suite": ..., "checks": [{"id", "status", "residual", "runtime_ms"}],
     "config": {...}}

and exits 0 if every check passed, 1 if any failed, 2 on usage errors,
malformed input files and unwritable ``--out`` paths included, with one
``Error:`` line.  The parser is
built once, at import; it abbreviates no option, and a value may start with
``-``, as in ``--sigma -+``.

Each command imports the modules it runs when it runs, before its report
starts, so ``--help`` loads none of them and ``runtime_ms`` covers only
the work.  The diagram-side commands are exact and do not import numpy.
``gram`` and ``quotient-dim`` load only ``states``, ``oracle`` and
``scalar``, and build no web: the Gram matrix and its rank come from the
basis webs' state vectors.  The others load ``algebra`` (with ``scalar``,
``web``, ``rewrite`` and ``states``), and only ``decompose`` and
``relcheck --suite f13`` load ``hecke``.  The path-side commands import
``graph``, and those that use cells also ``pathalg``, and no diagram
module.  ``graph`` is pure Python, and ``pathalg`` imports numpy only in
the functions that build path-pair blocks.  So every path command but
``flat check`` runs without numpy: ``dims``, ``graph build-a``, ``cells
solve`` and ``connection check`` (closed-form cells on a ``--n`` graph,
least squares on a ``--graph`` file), and ``zmap``, which reads its
labels and prints its result as path-pair terms.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


class Report:
    """The JSON report of one command.  Each check's ``runtime_ms`` runs
    from the previous ``add`` (or from ``start``, or the report's creation)
    to its own ``add``."""

    def __init__(self, suite: str, **config):
        self.suite = suite
        self.config = dict(config, precision_bits=64)
        self.checks = []
        self.start()

    def start(self):
        """Restart the clock of the next check."""
        self._t0 = time.perf_counter()

    def add(self, check_id: str, ok: bool, residual=None):
        now = time.perf_counter()
        if isinstance(residual, float) and not math.isfinite(residual):
            ok, residual = False, None  # written as null, and the check fails
        self.checks.append(
            {
                "id": check_id,
                "status": "pass" if ok else "fail",
                "residual": residual,
                "runtime_ms": round(1000 * (now - self._t0), 3),
            }
        )
        self._t0 = now

    def emit(self, out=None, payload=None) -> int:
        doc = {"suite": self.suite, "checks": self.checks, "config": self.config}
        if payload is not None:
            doc["result"] = payload
        text = json.dumps(doc, indent=2, allow_nan=False)
        if out:
            _write_out(out, text + "\n")
        else:
            try:
                print(text, flush=True)
            except BrokenPipeError:  # the reader left early, as ``| head -1`` does
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0 if all(c["status"] == "pass" for c in self.checks) else 1


def _bad_file(option: str, path: str, exc: Exception) -> argparse.ArgumentError:
    """One-line usage error for an input file that cannot be read."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return argparse.ArgumentError(None, f"argument {option}: {path}: {reason}")


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to the ``--out`` file; a path that cannot be written
    is a one-line usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise argparse.ArgumentError(None, f"argument --out: {path}: {exc.strerror or exc}") from None


def _read_input(option: str, path: str, parse):
    """``parse`` applied to the JSON in ``path``; malformed input becomes a
    one-line usage error naming ``option``."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, IndexError, TypeError, ValueError, NotImplementedError) as exc:
        raise _bad_file(option, path, exc) from None


def _load_websum(path: str):
    from .algebra import WebSum

    return _read_input("--in", path, WebSum.from_json)


def _checked_graph(obj):
    from . import graph

    g = graph.FusionGraph.from_json(obj)
    g.phi  # cached on g; raises ValueError unless the PF eigenvalue is certified to be [3]
    return g


def _graph_option(n, graph_file):
    """The graph in ``--graph FILE``, else the weight-lattice graph at ``--n``."""
    if graph_file:
        return _read_input("--graph", graph_file, _checked_graph)
    if n is None:
        raise argparse.ArgumentError(None, "need --n or --graph")
    from . import graph

    try:
        return graph.build_A(n)
    except ValueError as exc:
        raise argparse.ArgumentError(None, f"argument --n: {exc}") from None


def _arg(what: str, ok, parse=str):
    """An argparse type: ``parse(text)`` if it satisfies ``ok``, else an error."""
    def convert(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


def _at_least(low: int):
    return _arg(f"an integer >= {low}", lambda k: k >= low, int)


# --sigma, with its optional commas removed
_SIGMA = _arg("a word in '+' and '-'", lambda s: not set(s) - set("+-"),
              lambda text: text.replace(",", ""))
_TOL = _arg("a positive finite number", lambda x: 0 < x < math.inf, float)


def _fail(rep: Report, check_id: str, residual: float, payload=None):
    """Emit ``rep`` with a failed check ``check_id`` and exit 1."""
    rep.add(check_id, False, residual=residual)
    sys.exit(rep.emit(None, payload=payload))


def _certified_cells(g, rep: Report, tol: float = 1e-10, payload=None):
    """``graph.solve_cells(g, tol)``.  If the Perron-Frobenius weights of
    ``g`` fail their certificate, fail a ``perron_frobenius`` check with
    its residual; if the cells miss theirs, fail a ``frame_equations``
    check with the cells' residual, and with ``payload(cells)`` as the
    report's result when ``payload`` is given."""
    from . import graph

    try:
        return graph.solve_cells(g, tol=tol)
    except graph.UncertifiedPhi as exc:
        _fail(rep, "perron_frobenius", exc.residual)
    except graph.UncertifiedCells as exc:
        _fail(rep, "frame_equations", exc.cells.residual, payload(exc.cells) if payload else None)


class _Formatter(argparse.HelpFormatter):
    """Usage starts ``Usage: a2planar``, which ``perfbench/run.py`` checks."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """Only ``--help`` built in, no abbreviations, one ``Error:`` line."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Error: {message}\n")


def _subcommands(parser):
    return parser.add_subparsers(title="commands", metavar="COMMAND", required=True)


_PARSER = _Parser(prog="a2planar", description="Exact engine for the two-colour "
                  "spider calculus and its path algebras.")
_GROUPS = {"": _subcommands(_PARSER)}  # "" holds the top-level commands
for _name, _doc in [("graph", "Fusion-graph utilities."),
                    ("cells", "Cell-system (Boltzmann weight) utilities."),
                    ("connection", "Commuting-square connection utilities."),
                    ("flat", "Flatness of the connection.")]:
    _GROUPS[_name] = _subcommands(_GROUPS[""].add_parser(_name, help=_doc, description=_doc))
_VALUED = set()  # the options that take a value


def _option(*flags, **kwargs):
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


def _command(name: str, *options):
    """Register the function below as the command ``name`` (``"flat check"``
    in a group), with its docstring as help and its options as keywords."""
    def register(fn):
        group, _, leaf = name.rpartition(" ")
        p = _GROUPS[group].add_parser(leaf, help=fn.__doc__.split("\n")[0], description=fn.__doc__)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
            _VALUED.update(flags if kwargs.get("action") is None else ())
        p.set_defaults(command=fn, parser=p)
        return fn
    return register


# ---------------------------------------------------------------------------
# diagram-side commands

@_command("normalize", _option("--in", dest="infile", required=True), _option("--out"))
def normalize_cmd(infile, out):
    """Reduce a web sum to its normal form."""
    rep = Report("normalize", infile=infile)
    y = _load_websum(infile).normalized()
    rep.add("normalize", True, residual=0)
    sys.exit(rep.emit(out, payload=y.to_json()))


@_command("trace", _option("--in", dest="infile", required=True))
def trace_cmd(infile):
    """Closed-diagram trace of a web sum, as an exact Laurent polynomial."""
    from .algebra import trace_right
    from .oracle import flip

    rep = Report("trace", infile=infile)
    x = _load_websum(infile)
    if x.top != flip(x.bot):
        raise argparse.ArgumentError(None, f"argument --in: {infile}: the trace needs a top "
                                     f"that is the flipped bottom; got {x.top!r} over {x.bot!r}")
    val = trace_right(x)
    rep.add("trace", True, residual=0)
    sys.exit(rep.emit(None, payload=val.to_json()))


@_command("gram", _option("--sigma", required=True, type=_SIGMA,
                          help="boundary word, e.g. '---+++' or '-,-,-,+,+,+'"),
          _option("--n", required=True, type=_at_least(4)),
          _option("--rank", dest="want_rank", action="store_true"))
def gram_cmd(sigma, n, want_rank):
    """Gram matrix of the diagram basis at the order-n root."""
    from .scalar import CycloField
    from .states import gram_values, quotient_dim

    rep = Report("gram", sigma=sigma, n=n)
    if want_rank:
        r = quotient_dim(sigma, n)
        rep.add("gram", True, residual=0)
        print(r)
        sys.exit(rep.emit(None, payload={"rank": r}))
    rows = gram_values(sigma, CycloField.get(n).from_laurent)
    rep.add("gram", True, residual=0)
    sys.exit(rep.emit(None, payload=[[c.to_json() for c in row] for row in rows]))


@_command("decompose", _option("--in", dest="infile", required=True))
def decompose_cmd(infile):
    """Write a web sum as a word in the standard generators."""
    from .hecke import decompose
    from .web import WebError

    x = _load_websum(infile)
    rep = Report("decompose", infile=infile)
    try:
        word = decompose(x)  # certifies evaluate(word) == x
    except WebError as exc:
        raise _bad_file("--in", infile, exc) from None
    except ArithmeticError:
        rep.add("round_trip", False, residual=None)
        sys.exit(rep.emit())
    rep.add("round_trip", True, residual=0)
    sys.exit(rep.emit(None, payload=word.to_json()))


# The options each relation suite reads, which its report's config lists.
_SUITE_OPTIONS = {"hecke": ("m",), "su3": ("m",), "frels": ("m",),
                  "markov": ("m", "seed", "trials"), "braid": ("m",), "spherical": (),
                  "f13": ("n",)}


@_command("relcheck", _option("--suite", required=True, choices=list(_SUITE_OPTIONS)),
          _option("--m", default=4, type=_at_least(2)),
          _option("--n", default=7, type=_at_least(4)),
          _option("--seed", default=0, type=int),
          _option("--trials", default=100, type=_at_least(1)))
def relcheck_cmd(suite, m, n, seed, trials):
    """Run one of the exact relation suites."""
    import random

    from . import algebra

    least = {"su3": 4, "frels": 4}.get(suite, 2)  # below it the suite checks nothing
    if m < least:
        raise argparse.ArgumentError(None, f"argument --m: --suite {suite} needs --m >= {least}")
    options = {"m": m, "n": n, "seed": seed, "trials": trials}
    rep = Report("relcheck:" + suite, **{k: options[k] for k in _SUITE_OPTIONS[suite]})
    if suite == "hecke":
        results = algebra.check_hecke(m)
    elif suite == "su3":
        results = algebra.check_su3(m)
    elif suite == "frels":
        results = algebra.check_frels(m)
    elif suite == "markov":
        results = algebra.check_markov(m, trials, random.Random(seed))
    elif suite == "braid":
        results = algebra.check_braid(m)
    elif suite == "spherical":
        results = algebra.check_spherical()
    else:
        from .hecke import f13_relations

        rep.start()
        results = f13_relations(3, n)
    for name, ok in results:
        rep.add(name, ok, residual=0 if ok else None)
    sys.exit(rep.emit())


# ---------------------------------------------------------------------------
# path-side commands

@_command("dims", _option("--n", default=5, type=int),
          _option("--graph", dest="graph_file"),
          _option("--i", dest="ii", required=True, type=_at_least(0)),
          _option("--j", dest="jj", required=True, type=_at_least(0)))
def dims_cmd(n, graph_file, ii, jj):
    """Dimension of the level-(i, j) path-pair algebra."""
    from . import graph

    g = _graph_option(n, graph_file)
    rep = Report("dims", n=g.n, graph=g.name or graph_file, i=ii, j=jj)
    d = graph.dims(g, ii, jj)
    rep.add("dims", True, residual=0)
    print(d)
    sys.exit(rep.emit(None, payload={"dims": d}))


@_command("graph build-a", _option("--n", required=True, type=int), _option("--out"))
def build_a_cmd(n, out):
    """Emit the weight-lattice graph at Coxeter number n as JSON.

    With --out, also write the graph alone to a file that --graph reads."""
    g = _graph_option(n, None)
    if out:
        _write_out(out, json.dumps(g.to_json()))
    rep = Report("graph:build-a", n=n)
    rep.add("build", True, residual=0)
    sys.exit(rep.emit(None, payload=g.to_json()))


@_command("cells solve", _option("--n", type=int),
          _option("--graph", dest="graph_file"),
          _option("--tol", default=1e-10, type=_TOL))
def cells_solve_cmd(n, graph_file, tol):
    """Solve the frame equations for cell weights on a graph."""
    g = _graph_option(n, graph_file)
    rep = Report("cells:solve", n=g.n, graph=g.name or graph_file, tol=tol)
    cells = _certified_cells(g, rep, tol, payload=_cells_payload)
    rep.add("frame_equations", True, residual=cells.residual)
    sys.exit(rep.emit(None, payload=_cells_payload(cells)))


def _cells_payload(cells) -> dict:
    return {
        "residual": _number(cells.residual),
        "values": [
            {"triangle": list(t), "re": _number(v.real), "im": _number(v.imag)}
            for t, v in sorted(cells.values.items())
        ],
    }


def _number(x: float):
    """``x``, or None (JSON null) if it is not finite."""
    return x if math.isfinite(x) else None


@_command("connection check", _option("--n", type=int),
          _option("--graph", dest="graph_file"),
          _option("--tol", default=1e-10, type=_TOL))
def connection_check_cmd(n, graph_file, tol):
    """Unitarity and commuting-square residuals for both parities."""
    from . import pathalg as pa

    g = _graph_option(n, graph_file)
    rep = Report("connection:check", n=g.n, graph=g.name or graph_file, tol=tol)
    cells = _certified_cells(g, rep)
    for parity in ("even", "odd"):
        conn = pa.connection(g, cells, parity)
        rep.start()
        r1 = conn.unitarity_residual()
        rep.add(f"unitarity_{parity}", r1 < tol, residual=r1)
        r2 = conn.commuting_square_residual()
        rep.add(f"commuting_square_{parity}", r2 < tol, residual=r2)
    sys.exit(rep.emit())


@_command("flat check", _option("--n", type=int),
          _option("--graph", dest="graph_file"),
          _option("--hmax", default=2, type=_at_least(0)),
          _option("--vmax", default=2, type=_at_least(0)),
          _option("--tol", default=1e-8, type=_TOL))
def flat_check_cmd(n, graph_file, hmax, vmax, tol):
    """Commutators of horizontally and vertically supported elements."""
    from . import pathalg as pa

    g = _graph_option(n, graph_file)
    rep = Report("flat:check", n=g.n, graph=g.name or graph_file, hmax=hmax, vmax=vmax, tol=tol)
    cells = _certified_cells(g, rep)
    result = pa.flatness_check(g, cells, hmax, vmax)
    rep.add("flatness", result["max_commutator"] < tol, residual=result["max_commutator"])
    sys.exit(rep.emit(None, payload=result))


def _strip_word(tokens, labels, i: int, j: int) -> list:
    """The strip tokens, each a list, checked to stack up to the level-(i, j)
    boundary."""
    from . import pathalg as pa

    if type(tokens) is not list:
        raise ValueError(f"strips {tokens!r} is not a list")
    for tok in tokens:
        if type(tok) is not list:
            raise ValueError(f"strip token {tok!r} is not a list")
    word = [tuple(tok) for tok in tokens]
    sigma = pa.strip_boundary(word, labels)
    want = pa.sigma_word(i, j)
    if sigma != want:
        raise ValueError(f"strips give the boundary {sigma!r}; level ({i}, {j}) is {want!r}")
    return word


@_command("zmap", _option("--strips", required=True,
                          help="JSON list of strip tokens, top to bottom"),
          _option("--labels",
                  help="JSON list of labels: {level: [i, j], terms: [...]}"),
          _option("--n", default=5, type=int),
          _option("--graph", dest="graph_file"),
          _option("--i", dest="ii", required=True, type=_at_least(0)),
          _option("--j", dest="jj", required=True, type=_at_least(0)))
def zmap_cmd(strips, labels, n, graph_file, ii, jj):
    """Evaluate a strip word as a level-(i, j) path-pair element."""
    from . import pathalg as pa

    g = _graph_option(n, graph_file)

    def read_labels(rows):
        if type(rows) is not list:
            raise ValueError(f"labels {rows!r} is not a list")
        for r in rows:
            if type(r) is not dict:
                raise ValueError(f"labels row {r!r} is not an object")
            level = r["level"]
            if type(level) is not list or len(level) != 2 or not all(
                    type(k) is int and k >= 0 for k in level):
                raise ValueError(f"label level {level!r} is not two non-negative ints")
        return [pa.Label(g, tuple(r["level"]),
                         pa.pair_terms(g, r["level"], pa.terms_from_json(r["terms"])))
                for r in rows]
    labs = _read_input("--labels", labels, read_labels) if labels else []
    word = _read_input("--strips", strips, lambda toks: _strip_word(toks, labs, ii, jj))
    rep = Report("zmap", n=g.n, graph=g.name or graph_file, i=ii, j=jj, strips=strips)
    cells = _certified_cells(g, rep)
    terms = pa.z_terms(word, labs, g, cells, ii, jj)
    rep.add("evaluate", True, residual=0)
    sys.exit(rep.emit(None, payload=pa.terms_to_json(terms)))


@_command("quotient-dim", _option("--sigma", required=True, type=_SIGMA),
          _option("--n", required=True, type=_at_least(4)))
def quotient_dim_cmd(sigma, n):
    """Dimension of the null quotient of the diagram algebra."""
    from .states import quotient_dim

    rep = Report("quotient-dim", sigma=sigma, n=n)
    d = quotient_dim(sigma, n)
    rep.add("quotient_dim", True, residual=0)
    print(d)
    sys.exit(rep.emit(None, payload={"dim": d}))


def main(argv=None):
    """Run ``a2planar ARGV``, with ``sys.argv[1:]`` by default, and exit."""
    tokens = []  # "--sigma -+" as "--sigma=-+": argparse reads "-+" as an option
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _VALUED:
            tokens[-1] += "=" + tok
        else:
            tokens.append(tok)
    args = vars(_PARSER.parse_args(tokens))
    command, parser = args.pop("command"), args.pop("parser")
    try:
        command(**args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
