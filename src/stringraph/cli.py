"""Command line: generate inputs, build graphs, run certified extractions.

Every report command (separator, extract, color-or-clique, qp, oracle) runs
through one path, `_report`: read and digest the input, load the tuning
parameters, fix the report's parameters, run the command's function, re-check
its result with an independent verifier, and hand the parameters, the result
and the verification outcome to fileio.report_json, which writes the canonical
JSON report on one line, as json.dumps(sort_keys=True) writes it. Wall-clock
timings only appear with --timings, so that identical inputs give
byte-identical reports. --verify off skips only this module's
re-check, so only the commands that have one take it: separator, extract,
color-or-clique, qp check and qp sparse. Extract, color-or-clique and qp
sparse witnesses were already validated in the library before they returned.

Exit codes: 0 success and verified, 2 verification failure, 3 a declared
failure outcome (precondition violated, refinement or cover failure,
degenerate drawing, bound domain), which a report command writes as a report
with its witness, 4 usage, parse, schema and spec errors and output write
failures, 5 refusals of a search: an exact oracle's size cap, the clique
search's node budget (graph.CLIQUE_NODE_BUDGET), which every extractor's
K_r-free check, color-or-clique and qp check's search share, or the greedy
biclique search's scan budget (extract.BICLIQUE_SCAN_BUDGET).
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path
from typing import Optional, Sequence

from . import fileio
from .errors import (BadSpec, DegenerateDrawing, DegenerateGraph, DomainError,
                     DuplicateId, ExtractorViolation, InternalBoundViolation,
                     NoCoverFound, ParseError, PreconditionViolated,
                     RefinementFailed, SchemaError, TooLarge, UnknownVertex)
from .extract import (AlgorithmParams, ExtractionWitness,
                      color_or_clique, dense_core, half_clique_free_subgraph,
                      independent_set, kr1_free_subgraph, multipartite_cover,
                      q_independent_set, validate_witness)
from .generators import FAMILY_KINDS, KINDS, GeneratorSpec, generate
from .geometry import intersection_graph
from .oracles import (max_balanced_biclique_exact, max_clique_exact,
                      max_independent_set_exact, max_kp_free_subset_exact,
                      min_balanced_separator_exact, pairwise_crossing_exact)
from .quasiplanar import (Drawing, check_r, check_s, crossing_graph, dense_threshold,
                          edge_bound, edge_bound_holds, edges_cross, is_r_quasiplanar,
                          sparse_subgraph)
from .separator import (STRATEGIES, find_balanced_separator, fit_loglog_slope,
                        separator_size_survey, validate_partition)

_PARAM_FIELDS = tuple(f.name for f in fields(AlgorithmParams))


# ---------------------------------------------------------------------------
# Small plumbing helpers.

def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: Optional[str], text: str) -> None:
    if path and path != "-":
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _witness_obj(w: ExtractionWitness) -> dict:
    return {"kind": w.kind, "vertices": w.vertices, "size": len(w.vertices),
            "certificate": w.certificate}


def _load_params(args) -> AlgorithmParams:
    values = {}
    path = args.params
    if path:
        obj = fileio._loads(_read(path), inexact=True)
        if not isinstance(obj, dict):
            raise SchemaError("params file must be a JSON object")
        for key, val in obj.items():
            if key not in _PARAM_FIELDS:
                raise SchemaError(f"unknown parameter {key!r}", field=key)
            values[key] = val
    if args.strategy:
        values["separator_strategy"] = args.strategy
    try:
        params = AlgorithmParams(**values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad parameters: {exc}") from exc
    if getattr(args, "delta", None) is not None:
        params = replace(params, delta=args.delta)
    return params


# ---------------------------------------------------------------------------
# Commands that write a file, not a report.

def cmd_gen(args) -> int:
    spec = GeneratorSpec(kind=args.kind, count=args.count, seed=args.seed,
                         region=tuple(args.region), bends=args.bends)
    built = generate(spec)
    if isinstance(built, Drawing):
        text = fileio.drawing_json(built)
    else:
        text = fileio.family_json(built)
    _write(args.output, text)
    return 0


def cmd_build_graph(args) -> int:
    loaded = fileio.parse_input(_read(args.input), inexact=args.inexact)
    G = crossing_graph(loaded) if isinstance(loaded, Drawing) else intersection_graph(loaded)
    _write(args.output, fileio.graph_text(G))
    return 0


def cmd_survey(args) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if tok:
            sizes.append(int(tok))
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("--sizes needs a comma list of positive integers")
    # The largest size is checked against the caps before any family is made.
    template = GeneratorSpec(kind=args.kind, count=max(sizes), seed=args.seed)
    rows = separator_size_survey(template, sizes, trials=args.trials,
                                 strategy=args.strategy)
    beta = fit_loglog_slope([(m, sep) for _, m, sep in rows])
    lines = ["size,median_edges,median_separator"]
    lines.extend(f"{size},{m:g},{sep:g}" for size, m, sep in rows)
    lines.append(f"# fitted_beta={beta:.6f}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Report commands. Each sets two parser defaults: args.parameters(args, params)
# gives the report's parameters, and args.run(input, parameters, params)
# returns (result, verifier), where a verifier of None means the result needs
# no re-check.

_DECLARED = (PreconditionViolated, RefinementFailed, NoCoverFound,
             DegenerateDrawing, DomainError)


def _verification(args, verifier) -> tuple[dict, int]:
    """Verification block and exit code of a run that produced a result."""
    if verifier is None:
        block = {"witness_revalidated": False, "status": "pass"}
        if args.command == "oracle":
            block["exhaustive"] = True
        return block, 0
    if args.verify == "off":
        return {"witness_revalidated": False, "status": "skipped"}, 0
    try:
        verifier()
    except Exception as exc:
        return {"witness_revalidated": True, "status": "fail", "message": str(exc)}, 2
    return {"witness_revalidated": True, "status": "pass"}, 0


def _report(args) -> int:
    """Run one report command and write its report.

    Reads and digests the input, loads the tuning parameters where the
    command takes them, and fixes the report's parameters before anything
    runs, so a declared failure reports the same parameters as a success.
    `args.run` returns the result and its verifier; a declared failure
    becomes the exit-3 report that carries its witness.
    """
    started = time.perf_counter()
    if hasattr(args, "graph"):
        text = _read(args.graph)
        data = fileio.parse_graph_text(text)
    elif hasattr(args, "drawing"):
        text = _read(args.drawing)
        data = fileio.parse_drawing(text, inexact=args.inexact)
    else:
        text = f"bound:{args.n}:{args.s}:{args.C}:{args.edges}:{args.epsilon}"
        data = None
    params = _load_params(args) if hasattr(args, "params") else None
    parameters = args.parameters(args, params)
    if params is not None:
        # Every field is a scalar, so no deep copy is needed.
        parameters["params"] = {name: getattr(params, name) for name in _PARAM_FIELDS}
    try:
        result, verifier = args.run(data, parameters, params)
    except _DECLARED as exc:
        result = {"outcome": type(exc).__name__, "message": str(exc)}
        # Only PreconditionViolated carries a witness, an ExtractionWitness.
        if getattr(exc, "witness", None) is not None:
            result["witness"] = _witness_obj(exc.witness)
        verification, code = {"witness_revalidated": False, "status": "not_applicable"}, 3
    else:
        verification, code = _verification(args, verifier)
    sub = getattr(args, "op", None) or getattr(args, "which", None)
    operation = f"{args.command}:{sub}" if sub else args.command
    timings = None
    if args.timings:
        timings = {"wall_seconds": round(time.perf_counter() - started, 6)}
    _write(args.output, fileio.report_json(operation, fileio.sha256_digest(text),
                                           parameters, result, verification, timings))
    return code


def _given(args, *names) -> dict:
    """The named options that have a value, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _separator(G, v, params):
    part = find_balanced_separator(G, v["strategy"])
    result = {"outcome": "ok",
              "S": list(part.S), "V1": list(part.V1), "V2": list(part.V2),
              "sizes": {"S": len(part.S), "V1": len(part.V1), "V2": len(part.V2)}}
    return result, lambda: validate_partition(G, part)


def _cover_witness(cover, params) -> ExtractionWitness:
    return ExtractionWitness("multipartite", cover.parts,
                             {"alpha": cover.alpha, "c_dblprime": params.c_dblprime,
                              "t": cover.t, "p": cover.p,
                              "covered": sum(len(p) for p in cover.parts)})


# extract op -> (the options it reads, each with its default or None when it
# is required, call). Each call names its library function when it runs, so a
# module global replaced after import (a tracer wrapping it, say) is the
# function that runs.
_EXTRACT_OPS = {
    "independent": ({"s": None}, lambda G, v, p: independent_set(G, v["s"], p)),
    "qindep": ({"s": None, "q": None}, lambda G, v, p: q_independent_set(G, v["s"], v["q"], p)),
    "kr1free": ({"r": None}, lambda G, v, p: kr1_free_subgraph(G, v["r"], p)),
    "halfclique": ({"r": None}, lambda G, v, p: half_clique_free_subgraph(G, v["r"], p)),
    "densecore": ({"epsilon": 0.5}, lambda G, v, p: dense_core(G, v["epsilon"], p)),
    "multipartite": ({"alpha": None}, lambda G, v, p: _cover_witness(
        multipartite_cover(G, v["alpha"], p), p)),
}
_EXTRACT_FLAGS = tuple(dict.fromkeys(f for options, _ in _EXTRACT_OPS.values() for f in options))


def _extract_parameters(args, _) -> dict:
    """The op and the values of the options it reads; an option given to an
    op that does not read it is refused, so that every value given counts."""
    options = _EXTRACT_OPS[args.op][0]
    given = _given(args, *_EXTRACT_FLAGS)
    for flag in given:
        if flag not in options:
            raise ValueError(f"extract {args.op} does not take --{flag}")
    parameters = {"op": args.op, **options, **given}
    for flag in options:
        if parameters[flag] is None:
            raise ValueError(f"extract {args.op} needs --{flag}")
    return parameters


def _witnessed(G, w: ExtractionWitness):
    return {"outcome": "ok", "witness": _witness_obj(w)}, lambda: validate_witness(G, w)


def _extract(G, v, params):
    return _witnessed(G, _EXTRACT_OPS[v["op"]][1](G, v, params))


def _color_or_clique(G, v, params):
    return _witnessed(G, color_or_clique(G, v["epsilon"], params))


def _qp_check(drawing, v, params):
    check_r(v["r"])
    ok, witness = is_r_quasiplanar(crossing_graph(drawing), v["r"])
    result = {"outcome": "ok", "quasiplanar": ok}
    if witness is None:
        return result, None
    result["witness"] = list(witness)

    def verifier():
        # Each witness pair again, on the uncut curves and without the sweep.
        for a, b in combinations(witness, 2):
            if not edges_cross(drawing, a, b):
                raise ExtractorViolation(f"witness edges {a} and {b} do not cross")

    return result, verifier


def _qp_sparse(drawing, v, params):
    check_s(v["s"])
    # Build the crossing graph once; the verifier checks the witness on it.
    cg = crossing_graph(drawing)
    w = sparse_subgraph(cg, v["s"], params)
    return {"outcome": "ok", "witness": _witness_obj(w)}, lambda: validate_witness(cg, w)


def _qp_bound(_, v, params):
    result = {"outcome": "ok", "bound": edge_bound(v["n"], v["s"], v["C"])}
    if "edges" in v:
        result["holds"] = edge_bound_holds(v["n"], v["edges"], v["s"], v["C"])
    if "epsilon" in v:
        result["dense_threshold"] = dense_threshold(v["n"], v["epsilon"])
    return result, None


def _oracle(data, v, params):
    """Exhaustive answers are exact by construction, so there is no verifier."""
    which = v["oracle"]
    if which == "crossings":
        found = pairwise_crossing_exact(data, v["r"])
        result = {"outcome": "ok", "found": found is not None}
        if found is not None:
            result["edges"] = list(found)
    elif which == "sep":
        part = min_balanced_separator_exact(data)
        result = {"outcome": "ok", "S": list(part.S), "V1": list(part.V1),
                  "V2": list(part.V2), "size": len(part.S)}
    elif which == "biclique":
        a, b = max_balanced_biclique_exact(data)
        result = {"outcome": "ok", "t": len(a), "A": list(a), "B": list(b)}
    else:
        if which == "mis":
            vs = max_independent_set_exact(data)
        elif which == "clique":
            vs = max_clique_exact(data)
        else:
            vs = max_kp_free_subset_exact(data, v["p"])
        result = {"outcome": "ok", "size": len(vs), "vertices": list(vs)}
    return result, None


# ---------------------------------------------------------------------------
# Parser.

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it takes milliseconds, more than many commands take to run.
    Reusing it is safe because parse_args writes only into the fresh
    namespace it returns; nothing read from an input is cached here.
    """
    parser = argparse.ArgumentParser(
        prog="stringraph",
        description="String graphs from curve families: certified separators, "
                    "extractions and quasiplanar analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", help="output file ('-' or omitted: stdout)")

    # Report commands with nothing to re-check (qp bound, oracle) take timed;
    # the others take report.
    timed = argparse.ArgumentParser(add_help=False, parents=[out])
    timed.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report")

    report = argparse.ArgumentParser(add_help=False, parents=[timed])
    report.add_argument("--verify", choices=("on", "off"), default="on",
                        help="independently re-check the witness (default on)")

    tuning = argparse.ArgumentParser(add_help=False)
    tuning.add_argument("--params", help="JSON file of tuning constants")
    tuning.add_argument("--strategy", choices=STRATEGIES,
                        help="separator strategy override")

    p = sub.add_parser("gen", parents=[out], help="generate a family or drawing")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--region", nargs=4, type=int, metavar=("XMIN", "YMIN", "XMAX", "YMAX"),
                   default=(0, 0, 1_000_000, 1_000_000))
    p.add_argument("--bends", type=int, default=2)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-graph", parents=[out],
                       help="intersection graph of a family, or crossing graph of a drawing")
    p.add_argument("input")
    p.add_argument("--inexact", action="store_true",
                   help="read decimal literals as IEEE doubles")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("separator", parents=[report],
                       help="balanced separator with validation")
    p.add_argument("graph")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.set_defaults(func=_report, run=_separator,
                   parameters=lambda a, _: _given(a, "strategy"))

    p = sub.add_parser("extract", parents=[report, tuning],
                       help="certified extraction operations")
    p.add_argument("op", choices=tuple(_EXTRACT_OPS))
    p.add_argument("graph")
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=_report, run=_extract, parameters=_extract_parameters)

    p = sub.add_parser("color-or-clique", parents=[report, tuning],
                       help="small coloring or large clique, certified")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float)
    p.set_defaults(func=_report, run=_color_or_clique,
                   parameters=lambda a, _: _given(a, "epsilon"))

    qp = sub.add_parser("qp", help="quasiplanarity of drawings").add_subparsers(
        dest="which", required=True)

    p = qp.add_parser("check", parents=[report], help="r-quasiplanarity with witness")
    p.add_argument("drawing")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(func=_report, run=_qp_check,
                   parameters=lambda a, _: _given(a, "r"))

    p = qp.add_parser("sparse", parents=[report, tuning],
                      help="4-quasiplanar edge subset of a 2^s-quasiplanar drawing")
    p.add_argument("drawing")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(func=_report, run=_qp_sparse, parameters=lambda a, _: _given(a, "s"))

    p = qp.add_parser("bound", parents=[timed], help="edge-count bound evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--edges", type=int)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=_report, run=_qp_bound, parameters=lambda a, _: _given(
        a, "n", "s", "C", "edges", "epsilon"))

    orc = sub.add_parser("oracle", help="exact brute-force baselines").add_subparsers(
        dest="which", required=True)
    oracle_defaults = dict(func=_report, run=_oracle, parameters=lambda a, _: {
        "oracle": a.which, **_given(a, "r", "p")})
    for name in ("mis", "clique", "kpfree", "sep", "biclique"):
        p = orc.add_parser(name, parents=[timed])
        p.add_argument("graph")
        if name == "kpfree":
            p.add_argument("--p", type=int, required=True)
        p.set_defaults(**oracle_defaults)
    p = orc.add_parser("crossings", parents=[timed])
    p.add_argument("drawing")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(**oracle_defaults)

    p = sub.add_parser("survey", parents=[out],
                       help="separator size scaling over generated families")
    p.add_argument("--kind", required=True, choices=FAMILY_KINDS)
    p.add_argument("--sizes", required=True,
                   help="comma-separated family sizes, e.g. 50,100,200")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 4
    try:
        return args.func(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except _DECLARED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ExtractorViolation, InternalBoundViolation) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError, BadSpec, DuplicateId, UnknownVertex,
            DegenerateGraph, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
