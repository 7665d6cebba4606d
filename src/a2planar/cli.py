"""Command-line front end: runs the identity suites and computations
with machine-readable JSON reports.

Every subcommand prints a report of the form::

    {"suite": ..., "checks": [{"id", "status", "residual", "runtime_ms"}],
     "config": {...}}

and exits 0 if every check passed, 1 if any failed, 2 on usage errors,
malformed input files included.

Each command imports the modules it runs when it runs, before its report
starts, so ``--help`` loads none of them.  The diagram-side commands are
exact and do not import numpy; each loads ``algebra`` (with ``scalar``,
``web`` and ``rewrite``), and only ``decompose`` and ``relcheck --suite
f13`` load ``hecke``.  The path-side commands import ``graph`` and
``pathalg``, and with them numpy and ``web``, and no other diagram module.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import click


def _precision() -> int:
    bits = int(os.environ.get("A2P_PRECISION", "64"))
    if bits != 64:
        raise click.UsageError(
            "only 64-bit floating point is supported (A2P_PRECISION=64)"
        )
    return bits


class Report:
    """The JSON report of one command.  Each check's ``runtime_ms`` runs
    from the previous ``add`` (or from ``start``, or the report's creation)
    to its own ``add``."""

    def __init__(self, suite: str, **config):
        self.suite = suite
        self.config = dict(config, precision_bits=_precision())
        self.checks = []
        self.start()

    def start(self):
        """Restart the clock of the next check."""
        self._t0 = time.perf_counter()

    def add(self, check_id: str, ok: bool, residual=None):
        now = time.perf_counter()
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
        text = json.dumps(doc, indent=2, default=str)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            click.echo(text)
        return 0 if all(c["status"] == "pass" for c in self.checks) else 1


def _bad_file(option: str, path: str, exc: Exception) -> click.BadParameter:
    """One-line usage error for an input file that cannot be read."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return click.BadParameter(f"{path}: {reason}", param_hint=f"'{option}'")


def _read_input(option: str, path: str, parse):
    """``parse`` applied to the JSON in ``path``; malformed input becomes a
    one-line usage error naming ``option``."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (KeyError, IndexError, TypeError, ValueError, NotImplementedError) as exc:
        raise _bad_file(option, path, exc) from None


def _websum(rows):
    from .algebra import WebSum
    from .scalar import Laurent
    from .web import Web

    webs = [(Web.from_json(r["web"]), Laurent.from_json(r["coeff"])) for r in rows]
    if not webs:
        raise ValueError("empty web sum")
    return WebSum(webs[0][0].top, webs[0][0].bot, webs)


def _load_websum(path: str):
    return _read_input("--in", path, _websum)


def _dump_websum(x):
    return [{"coeff": c.to_json(), "web": w.to_json()} for w, c in x.terms.items()]


def _checked_graph(obj):
    from . import graph

    g = graph.FusionGraph.from_json(obj)
    g.phi  # cached on g; raises ValueError unless the PF eigenvalue is [3]
    return g


def _graph_option(n, graph_file):
    """The graph in ``--graph FILE``, else the weight-lattice graph at ``--n``."""
    if graph_file:
        return _read_input("--graph", graph_file, _checked_graph)
    if n is None:
        raise click.UsageError("need --n or --graph")
    from . import graph

    try:
        return graph.build_A(n)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--n'") from None


def _sigma(ctx, param, value: str) -> str:
    """``--sigma`` with its optional commas removed."""
    sigma = value.replace(",", "")
    if set(sigma) - set("+-"):
        raise click.BadParameter(f"{value!r} has signs other than '+' and '-'")
    return sigma


def _tol(ctx, param, value: float) -> float:
    """``--tol``, a positive finite bound."""
    if not 0 < value < math.inf:
        raise click.BadParameter(f"{value!r} is not a positive finite number")
    return value


def _fail(rep: Report, check_id: str, residual: float):
    """Emit ``rep`` with a failed check ``check_id`` and exit 1."""
    rep.add(check_id, False, residual=residual)
    sys.exit(rep.emit())


def _solve_cells(g, rep: Report, tol: float = 1e-10):
    """``graph.solve_cells(g, tol)``.  If the Perron-Frobenius weights of
    ``g`` fail their cross-check, fail a ``perron_frobenius`` check with
    the disagreement."""
    from . import graph

    try:
        return graph.solve_cells(g, tol=tol)
    except graph.EigenvectorMismatch as exc:
        _fail(rep, "perron_frobenius", exc.residual)


def _certified_cells(g, rep: Report):
    """The cells of ``g``.  If they miss their slow-route certificate, fail
    a ``frame_equations`` check with the residual."""
    from . import graph

    try:
        return _solve_cells(g, rep)
    except graph.UncertifiedCells as exc:
        _fail(rep, "frame_equations", exc.cells.residual)


@click.group()
def main():
    """Exact engine for the two-colour spider calculus and its path algebras."""
    _precision()


# ---------------------------------------------------------------------------
# diagram-side commands

@main.command("normalize")
@click.option("--in", "infile", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
def normalize_cmd(infile, out):
    """Reduce a web sum to its normal form."""
    from .algebra import WebSum
    from .rewrite import normalize

    rep = Report("normalize", infile=infile)
    x = _load_websum(infile)
    nf = normalize(list(x.terms.items()))
    rep.add("normalize", True, residual=0)
    y = WebSum(x.top, x.bot, nf)
    sys.exit(rep.emit(out, payload=_dump_websum(y)))


@main.command("trace")
@click.option("--in", "infile", required=True, type=click.Path(exists=True))
def trace_cmd(infile):
    """Closed-diagram trace of a web sum, as an exact Laurent polynomial."""
    from .algebra import trace_right

    rep = Report("trace", infile=infile)
    x = _load_websum(infile)
    val = trace_right(x)
    rep.add("trace", True, residual=0)
    sys.exit(rep.emit(None, payload=val.to_json()))


@main.command("gram")
@click.option("--sigma", required=True, callback=_sigma,
              help="boundary word, e.g. '---+++' or '-,-,-,+,+,+'")
@click.option("--n", required=True, type=click.IntRange(min=4))
@click.option("--rank", "want_rank", is_flag=True)
def gram_cmd(sigma, n, want_rank):
    """Gram matrix of the diagram basis at the order-n root."""
    from .algebra import gram, quotient_dim

    rep = Report("gram", sigma=sigma, n=n)
    if want_rank:
        r = quotient_dim(sigma, n)
        rep.add("gram", True, residual=0)
        click.echo(str(r))
        sys.exit(rep.emit(None, payload={"rank": r}))
    _, rows = gram(sigma, n)
    rep.add("gram", True, residual=0)
    payload = [[c.to_json() for c in row] for row in rows]
    sys.exit(rep.emit(None, payload=payload))


@main.command("decompose")
@click.option("--in", "infile", required=True, type=click.Path(exists=True))
@click.option("--max-len", default=8, type=click.IntRange(min=0))
def decompose_cmd(infile, max_len):
    """Write a web sum as a word in the standard generators."""
    from .hecke import decompose
    from .web import WebError

    x = _load_websum(infile)
    rep = Report("decompose", infile=infile)
    try:
        word = decompose(x, max_len=max_len)  # certifies evaluate(word) == x
    except WebError as exc:
        raise _bad_file("--in", infile, exc) from None
    except ArithmeticError:
        rep.add("round_trip", False, residual=None)
        sys.exit(rep.emit())
    rep.add("round_trip", True, residual=0)
    sys.exit(rep.emit(None, payload=word.to_json()))


@main.command("relcheck")
@click.option(
    "--suite", required=True,
    type=click.Choice(["hecke", "su3", "frels", "markov", "braid", "spherical", "f13"]),
)
@click.option("--m", default=4, type=click.IntRange(min=2))
@click.option("--n", default=7, type=click.IntRange(min=4))
@click.option("--seed", default=0, type=int)
@click.option("--trials", default=100, type=click.IntRange(min=1))
def relcheck_cmd(suite, m, n, seed, trials):
    """Run one of the exact relation suites."""
    import random

    from . import algebra

    rep = Report("relcheck:" + suite, m=m, n=n, seed=seed, trials=trials)
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

@main.command("dims")
@click.option("--n", default=5, type=int)
@click.option("--graph", "graph_file", default=None, type=click.Path(exists=True))
@click.option("--i", "ii", required=True, type=click.IntRange(min=0))
@click.option("--j", "jj", required=True, type=click.IntRange(min=0))
def dims_cmd(n, graph_file, ii, jj):
    """Dimension of the level-(i, j) path-pair algebra."""
    from . import pathalg as pa

    g = _graph_option(n, graph_file)
    rep = Report("dims", n=g.n, graph=g.name or graph_file, i=ii, j=jj)
    d = pa.dims(g, ii, jj)
    rep.add("dims", True, residual=0)
    click.echo(str(d))
    sys.exit(rep.emit(None, payload={"dims": d}))


@main.group("graph")
def graph_grp():
    """Fusion-graph utilities."""


@graph_grp.command("build-a")
@click.option("--n", required=True, type=int)
@click.option("--out", default=None, type=click.Path())
def build_a_cmd(n, out):
    """Emit the weight-lattice graph at Coxeter number n as JSON.

    With --out, also write the graph alone to a file that --graph reads."""
    g = _graph_option(n, None)
    if out:
        with open(out, "w") as fh:
            json.dump(g.to_json(), fh)
    rep = Report("graph:build-a", n=n)
    rep.add("build", True, residual=0)
    sys.exit(rep.emit(None, payload=g.to_json()))


@main.group("cells")
def cells_grp():
    """Cell-system (Boltzmann weight) utilities."""


@cells_grp.command("solve")
@click.option("--n", default=None, type=int)
@click.option("--graph", "graph_file", default=None, type=click.Path(exists=True))
@click.option("--tol", default=1e-10, type=float, callback=_tol)
def cells_solve_cmd(n, graph_file, tol):
    """Solve the frame equations for cell weights on a graph."""
    from . import graph

    g = _graph_option(n, graph_file)
    rep = Report("cells:solve", n=g.n, graph=g.name or graph_file, tol=tol)
    try:
        cells = _solve_cells(g, rep, tol)
    except graph.UncertifiedCells as exc:
        cells = exc.cells
    rep.add("frame_equations", cells.residual < tol, residual=cells.residual)
    payload = {
        "residual": cells.residual,
        "values": [
            {"triangle": list(t), "re": v.real, "im": v.imag}
            for t, v in sorted(cells.values.items())
        ],
    }
    sys.exit(rep.emit(None, payload=payload))


@main.group("connection")
def connection_grp():
    """Commuting-square connection utilities."""


@connection_grp.command("check")
@click.option("--n", default=None, type=int)
@click.option("--graph", "graph_file", default=None, type=click.Path(exists=True))
@click.option("--tol", default=1e-10, type=float, callback=_tol)
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


@main.group("flat")
def flat_grp():
    """Flatness of the connection."""


@flat_grp.command("check")
@click.option("--n", default=None, type=int)
@click.option("--graph", "graph_file", default=None, type=click.Path(exists=True))
@click.option("--hmax", default=2, type=click.IntRange(min=0))
@click.option("--vmax", default=2, type=click.IntRange(min=0))
@click.option("--tol", default=1e-8, type=float, callback=_tol)
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
    """The strip tokens, checked to stack up to the level-(i, j) boundary."""
    from . import pathalg as pa

    word = [tuple(tok) for tok in tokens]
    sigma = pa.strip_boundary(word, labels)
    want = pa.sigma_word(i, j)
    if sigma != want:
        raise ValueError(f"strips give the boundary {sigma!r}; level ({i}, {j}) is {want!r}")
    return word


@main.command("zmap")
@click.option("--strips", required=True, type=click.Path(exists=True),
              help="JSON list of strip tokens, top to bottom")
@click.option("--labels", default=None, type=click.Path(exists=True),
              help="JSON list of labels: {level: [i, j], terms: [...]}")
@click.option("--n", default=5, type=int)
@click.option("--graph", "graph_file", default=None, type=click.Path(exists=True))
@click.option("--i", "ii", required=True, type=click.IntRange(min=0))
@click.option("--j", "jj", required=True, type=click.IntRange(min=0))
def zmap_cmd(strips, labels, n, graph_file, ii, jj):
    """Evaluate a strip word as a level-(i, j) path-pair element."""
    from . import pathalg as pa

    g = _graph_option(n, graph_file)
    labs = []
    if labels:
        labs = _read_input("--labels", labels, lambda rows: [
            pa.PathAlgElement.from_json(g, tuple(r["level"]), r["terms"]) for r in rows
        ])
    word = _read_input("--strips", strips, lambda toks: _strip_word(toks, labs, ii, jj))
    rep = Report("zmap", n=g.n, graph=g.name or graph_file, i=ii, j=jj, strips=strips)
    cells = _certified_cells(g, rep)
    z = pa.z_element(word, labs, g, cells, ii, jj)
    rep.add("evaluate", True, residual=0)
    sys.exit(rep.emit(None, payload=z.to_json()))


@main.command("quotient-dim")
@click.option("--sigma", required=True, callback=_sigma)
@click.option("--n", required=True, type=click.IntRange(min=4))
def quotient_dim_cmd(sigma, n):
    """Dimension of the null quotient of the diagram algebra."""
    from .algebra import quotient_dim

    rep = Report("quotient-dim", sigma=sigma, n=n)
    d = quotient_dim(sigma, n)
    rep.add("quotient_dim", True, residual=0)
    click.echo(str(d))
    sys.exit(rep.emit(None, payload={"dim": d}))


if __name__ == "__main__":
    main()
