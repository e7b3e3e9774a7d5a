"""Command-line entry point.

Machine-readable JSON goes to stdout, human progress notes to stderr.
Exit codes: 0 success, 1 bad input, usage error, unmet precondition, a path
that cannot be read or written, or stdout closed early by its reader
(nothing goes to stderr then), 2 internal inconsistency (a state the
underlying theory forbids), 3 budget exhausted (``solve --timeout`` ran out
before the search finished, or the node budget of ``colour --girth6``'s
search on a Delta <= 3 input did; stdout stays empty and no file is
written).

``main`` runs each command with the cyclic garbage collector paused and
restores the caller's setting when the command ends, however it ends.  The
package builds no reference cycles, so a collection during a command would
only rescan a heap that reference counting already frees; the one cyclic
garbage a command leaves is the few dozen objects of each indented
``json.dumps`` call, freed by the first collection after it.  Colourings
are written without ``json.dumps`` (``colouring.colours_json``), so that
call now prints only reports and the small members around a colouring.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .colouring import (
    InternalInconsistency,
    PreconditionError,
    colouring_from_json,
    colouring_to_json,
    colours_json,
    json_object,
    known_bound,
    trivial_lower_bound,
    verify_strong,
)
from .discharging import apply_rules, audit, initial_charges
from .embedding import planar_embed
from .exact import SolverTimeout, is_strong_k_colourable, strong_chromatic_index
from .generators import GeneratorSpec, generate
from .girth6 import KIND_SUMMARY, ExtendStep, colour_girth6, write_trace
from .graph import ACYCLIC, Graph, parse_graph, to_dot, to_edge_list
from .pipeline import colour_pipeline

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INCONSISTENT = 2
EXIT_BUDGET = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_graph(path: str) -> tuple[Graph, bytes]:
    """The graph in the file at ``path``, and the bytes it was parsed from.
    The file is read once, so a pipe or FIFO is hashed as it was parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_graph(data.decode()), data


def _girth_json(girth: float):
    return "acyclic" if girth == ACYCLIC else int(girth)


def _input_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _emit(doc: dict, **rendered: str) -> None:
    """Print ``doc`` plus the members ``rendered``, whose values are JSON
    text laid out one level deep, as ``json.dumps(indent=2, sort_keys=True)``
    prints the whole; the colouring commands pass their colourings so."""
    if not rendered:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    print(json_object({k: _member(v) for k, v in doc.items()} | rendered))


def _member(value) -> str:
    """``value`` as JSON text one level deep.  A scalar is the same text
    indented or not, so only a container goes through the indenting
    encoder."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
    return json.dumps(value)


def cmd_analyze(args) -> int:
    g, data = _read_graph(args.graph)
    emb = planar_embed(g)
    planar = emb is not None
    delta = g.max_degree()
    girth = g.girth()
    doc = {
        "input": args.graph,
        "input_hash": _input_hash(data),
        "vertices": g.num_vertices(),
        "edges": g.num_edges(),
        "delta": delta,
        "girth": _girth_json(girth),
        "planar": planar,
        "trivial_lower_bound": trivial_lower_bound(g),
        # the bound table covers planar graphs with delta >= 3 only
        "known_bound": known_bound(delta, girth) if planar and delta >= 3 else None,
    }
    _emit(doc)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        params=tuple(args.params),
        seed=args.seed,
        subdivision=args.subdivide,
    )
    g = generate(spec)
    text = to_dot(g) if args.format == "dot" else to_edge_list(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _log(f"wrote {g.num_vertices()} vertices / {g.num_edges()} edges to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_solve(args) -> int:
    g, _ = _read_graph(args.graph)
    start = time.monotonic()
    try:
        if args.k is not None:
            deadline = start + args.timeout if args.timeout is not None else None
            witness = is_strong_k_colourable(g, args.k, deadline)
            doc = {
                "k": args.k,
                "satisfiable": witness is not None,
                "seconds": round(time.monotonic() - start, 6),
            }
        else:
            result = strong_chromatic_index(g, timeout=args.timeout)
            witness = result.witness
            doc = {
                "chi_s": result.chi_s,
                "nodes": result.stats.nodes,
                "seconds": round(result.stats.elapsed, 6),
            }
    except SolverTimeout:
        _log(f"budget exhausted: solve --timeout {args.timeout:g} s")
        return EXIT_BUDGET
    if witness is None:
        _emit(doc)
    else:
        _emit(doc, colouring=colouring_to_json(witness, depth=1))
    return EXIT_OK


def cmd_colour(args) -> int:
    if args.trace and not args.girth6:
        raise PreconditionError("--trace needs --girth6, the only colourer that records steps")
    g, data = _read_graph(args.graph)
    trace: list[ExtendStep] = []
    delta = g.max_degree()
    girth = g.girth()
    start = time.monotonic()
    if args.girth6:
        try:
            col = colour_girth6(g, trace=trace)
        except SolverTimeout as exc:
            _log(f"budget exhausted: colour --girth6 {exc}")
            return EXIT_BUDGET
        facts = {"steps": len(trace)}
    else:
        col, pipe = colour_pipeline(g, budget=args.budget)
        facts = pipe.as_dict()
    report = {
        "algorithm": "girth6" if args.girth6 else "pipeline",
        "palette": col.palette,
        **facts,
        "command": "colour --girth6" if args.girth6 else "colour --pipeline",
        "input_hash": _input_hash(data),
        "delta": delta,
        "girth": _girth_json(girth),
        "planar": True,
        "colours_used": col.colours_used(),
        "known_bound": known_bound(delta, girth) if delta >= 3 else None,
        "seconds": round(time.monotonic() - start, 6),
        # each colourer checks its colouring once, with verify_strong, and
        # raises InternalInconsistency (exit 2) on a violation
        "valid": True,
    }
    # the colours block is rendered once, for -o and stdout alike
    colours = colours_json(col) if args.output or args.format == "json" else None
    # the files first, stdout last: a run that cannot write one exits 1 with
    # stdout empty and no trace file left behind
    if args.trace:
        with open(args.trace, "w") as fh:
            write_trace(fh, args.graph, col.palette, trace)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(colouring_to_json(col, colours=colours))
        except OSError:
            if args.trace:
                os.remove(args.trace)
            raise
    if args.trace:
        _log(f"trace with {len(trace)} steps written to {args.trace}")
    if args.format == "dot":
        sys.stdout.write(to_dot(g, col.assignment))
        _log(json.dumps(report))
    else:
        _emit({"palette": col.palette, "report": report}, colours=colours)
    return EXIT_OK


def cmd_discharge(args) -> int:
    g, _ = _read_graph(args.graph)
    emb = planar_embed(g)
    if emb is None:
        raise PreconditionError("discharging needs a planar input")
    init = initial_charges(emb)
    final = apply_rules(emb, init)
    report = audit(emb, init, final)
    _emit(report.as_dict())
    if report.configuration is not None:
        kind = report.configuration.kind
        _log(f"found {kind}: {KIND_SUMMARY[kind]}")
    if report.verdict == "theorem-violation":
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_verify(args) -> int:
    g, _ = _read_graph(args.graph)
    with open(args.colouring) as fh:
        col = colouring_from_json(fh.read(), g)
    violations = verify_strong(g, col, require_total=not args.partial)
    doc = {
        "valid": not violations,
        "violations": [str(v) for v in violations[:50]],
        "colours_used": col.colours_used(),
        "palette": col.palette,
    }
    _emit(doc)
    return EXIT_OK if not violations else EXIT_PRECONDITION


def _bench_corpus(seed_count: int) -> list[tuple[str, GeneratorSpec]]:
    corpus = []
    for s in range(1, seed_count + 1):
        if s % 2:
            spec = GeneratorSpec("wheel", (4 + s % 8,), seed=s, subdivision=1)
        else:
            spec = GeneratorSpec("triangulation", (3 + s % 6,), seed=s, subdivision=1)
        corpus.append((f"{spec.family}-s{s}", spec))
    return corpus


def _bench_one(name: str, spec: GeneratorSpec, budget: float) -> dict:
    g = generate(spec)
    delta = g.max_degree()
    girth = g.girth()
    row = {
        "name": name,
        "vertices": g.num_vertices(),
        "edges": g.num_edges(),
        "delta": delta,
        "girth": _girth_json(girth),
        "known_bound": known_bound(delta, girth) if delta >= 3 else None,
    }
    # each colourer checks its colouring once, with verify_strong, and
    # raises InternalInconsistency (exit 2) on a violation, so a row that
    # completes is valid
    start = time.monotonic()
    col = colour_girth6(g)
    row["girth6_colours"] = col.colours_used()
    row["girth6_ok"] = True
    row["girth6_seconds"] = round(time.monotonic() - start, 4)
    start = time.monotonic()
    pcol, preport = colour_pipeline(g, budget=budget)
    row["pipeline_colours"] = pcol.colours_used()
    row["pipeline_bound"] = preport.bound_claimed
    row["pipeline_ok"] = True
    row["pipeline_seconds"] = round(time.monotonic() - start, 4)
    return row


def cmd_bench(args) -> int:
    corpus = _bench_corpus(args.count)
    _log(f"benching {len(corpus)} instances")
    rows = [_bench_one(n, s, args.budget) for n, s in corpus]
    _emit({"instances": rows, "failures": 0})
    for r in rows:
        _log(
            f"{r['name']:<22} V={r['vertices']:<4} E={r['edges']:<4} "
            f"D={r['delta']:<3} girth6={r['girth6_colours']:<3} "
            f"pipeline={r['pipeline_colours']:<3} bound={r['known_bound']}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as bad input does (argparse's 2 is taken); its
    subparsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


def seconds(text: str) -> float:
    """A time bound: any float but NaN, which no clock reading exceeds."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid seconds value: {text!r} (NaN)")
    return value


def count(text: str) -> int:
    """A corpus size: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid count: {text!r} (negative)")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="strongedge",
        description="strong edge-colouring toolkit for sparse planar graphs",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="structural facts and applicable bounds")
    a.add_argument("graph")
    a.set_defaults(fn=cmd_analyze)

    g = sub.add_parser("gen", help="generate a test instance")
    g.add_argument("family")
    g.add_argument("params", nargs="*", type=int)
    g.add_argument("--subdivide", type=int, default=0, metavar="T")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=("edges", "dot"), default="edges")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("solve", help="exact strong chromatic index")
    s.add_argument("graph")
    s.add_argument("--k", type=int, default=None, help="decision variant")
    s.add_argument("--timeout", type=seconds, default=None, metavar="SECS")
    s.set_defaults(fn=cmd_solve)

    c = sub.add_parser("colour", help="constructive strong colouring")
    mode = c.add_mutually_exclusive_group(required=True)
    mode.add_argument("--girth6", action="store_true")
    mode.add_argument("--pipeline", action="store_true")
    c.add_argument("graph")
    c.add_argument("--budget", type=seconds, default=5.0, metavar="SECS")
    c.add_argument("--trace", metavar="FILE")
    c.add_argument("--format", choices=("json", "dot"), default="json")
    c.add_argument("-o", "--output")
    c.set_defaults(fn=cmd_colour)

    d = sub.add_parser("discharge", help="charge redistribution audit")
    d.add_argument("graph")
    d.set_defaults(fn=cmd_discharge)

    v = sub.add_parser("verify", help="check a colouring document")
    v.add_argument("graph")
    v.add_argument("colouring")
    v.add_argument("--partial", action="store_true", help="allow uncoloured edges")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="corpus sweep")
    b.add_argument("--count", type=count, default=20, help="corpus size")
    b.add_argument("--budget", type=seconds, default=2.0)
    b.set_defaults(fn=cmd_bench)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs about a millisecond, and
    ``parse_args`` keeps no state between calls (each returns a new
    namespace filled from the defaults)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # module docstring
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed stdout raises here
        return code
    except BrokenPipeError:
        # the ``signal`` docs' recipe: the interpreter flushes stdout again at
        # exit, so point it at the null device, and exit 1 as Python does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_PRECONDITION
    except InternalInconsistency as exc:
        _log(f"internal inconsistency: {exc}")
        return EXIT_INCONSISTENT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
