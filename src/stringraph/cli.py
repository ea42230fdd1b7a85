"""Command line: generate inputs, build graphs, run certified extractions.

Every analysis subcommand emits a canonical JSON run report (sorted keys,
stable layout) holding the parameters, the witness and the verification
outcome; wall-clock timings only appear with --timings so that identical
inputs give byte-identical reports.

Exit codes: 0 success and verified, 2 verification failure, 3 a declared
failure outcome with its witness (precondition violated, refinement or cover
failure, degenerate drawing, bound domain), 4 parse/schema/spec errors, 5
exact-oracle size-cap refusals.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
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
from .generators import KINDS, GeneratorSpec, generate
from .geometry import intersection_graph, polylines_intersect
from .graph import Graph
from .oracles import (max_balanced_biclique_exact, max_clique_exact,
                      max_independent_set_exact, max_kp_free_subset_exact,
                      min_balanced_separator_exact, pairwise_crossing_exact)
from .quasiplanar import (Drawing, crossing_graph, dense_threshold, edge_bound,
                          is_r_quasiplanar, sparse_subgraph, truncate_edges)
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
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _witness_obj(w: ExtractionWitness) -> dict:
    return {"kind": w.kind,
            "vertices": _jsonable(list(w.vertices)),
            "size": len(w.vertices),
            "certificate": _jsonable(w.certificate)}


def _load_params(args) -> AlgorithmParams:
    values = {}
    path = getattr(args, "params", None)
    if path:
        try:
            obj = json.loads(_read(path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid params JSON: {exc.msg}", line=exc.lineno) from exc
        if not isinstance(obj, dict):
            raise SchemaError("params file must be a JSON object")
        for key, val in obj.items():
            if key not in _PARAM_FIELDS:
                raise SchemaError(f"unknown parameter {key!r}", field=key)
            values[key] = val
    strategy = getattr(args, "strategy", None)
    if strategy:
        values["separator_strategy"] = strategy
    try:
        return AlgorithmParams(**values)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad parameters: {exc}") from exc


def _emit(args, operation: str, digest: str, parameters: dict, result: dict,
          verification: dict, started: float) -> None:
    timings = None
    if getattr(args, "timings", False):
        timings = {"wall_seconds": round(time.perf_counter() - started, 6)}
    report = fileio.RunReport(operation, digest, _jsonable(parameters),
                              _jsonable(result), _jsonable(verification), timings)
    _write(getattr(args, "output", None), fileio.report_json(report))


def _finish(args, operation: str, digest: str, parameters: dict, result: dict,
            started: float, verifier) -> int:
    """Emit a report, re-running the independent verifier when --verify is on."""
    code = 0
    if getattr(args, "verify", "on") == "on" and verifier is not None:
        try:
            verifier()
            verification = {"witness_revalidated": True, "status": "pass"}
        except Exception as exc:
            verification = {"witness_revalidated": True, "status": "fail",
                            "message": str(exc)}
            code = 2
    elif verifier is None:
        verification = {"witness_revalidated": False, "status": "pass"}
    else:
        verification = {"witness_revalidated": False, "status": "skipped"}
    _emit(args, operation, digest, parameters, result, verification, started)
    return code


_DECLARED = (PreconditionViolated, RefinementFailed, NoCoverFound,
             DegenerateDrawing, DomainError)


def _with_declared(args, operation: str, digest: str, parameters: dict,
                   started: float, fn) -> int:
    try:
        return fn()
    except _DECLARED as exc:
        result = {"outcome": type(exc).__name__, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if isinstance(witness, ExtractionWitness):
            result["witness"] = _witness_obj(witness)
        elif witness is not None:
            result["witness"] = _jsonable(tuple(witness))
        _emit(args, operation, digest, parameters, result,
              {"witness_revalidated": False, "status": "not_applicable"}, started)
        return 3


# ---------------------------------------------------------------------------
# Subcommand handlers.

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
    if isinstance(loaded, Drawing):
        G = crossing_graph(loaded)
    elif len(loaded) == 0:
        G = Graph((), ())
    else:
        G = intersection_graph(loaded)
    _write(args.output, fileio.graph_text(G))
    return 0


def cmd_separator(args) -> int:
    started = time.perf_counter()
    text = _read(args.graph)
    G = fileio.parse_graph_text(text)
    digest = fileio.sha256_digest(text)
    parameters = {"strategy": args.strategy}
    part = find_balanced_separator(G, args.strategy)
    result = {"outcome": "ok",
              "S": list(part.S), "V1": list(part.V1), "V2": list(part.V2),
              "sizes": {"S": len(part.S), "V1": len(part.V1), "V2": len(part.V2)}}
    return _finish(args, "separator", digest, parameters, result, started,
                   lambda: validate_partition(G, part))


def cmd_extract(args) -> int:
    started = time.perf_counter()
    text = _read(args.graph)
    G = fileio.parse_graph_text(text)
    digest = fileio.sha256_digest(text)
    params = _load_params(args)
    op = args.op
    operation = f"extract:{op}"
    parameters = {"op": op, "params": asdict(params)}

    def need(flag: str):
        if getattr(args, flag, None) is None:
            raise ValueError(f"extract {op} needs --{flag}")
        return getattr(args, flag)

    def go() -> int:
        if op == "independent":
            parameters["s"] = need("s")
            w = independent_set(G, args.s, params)
        elif op == "qindep":
            parameters["s"] = need("s")
            parameters["q"] = need("q")
            w = q_independent_set(G, args.s, args.q, params)
        elif op == "kr1free":
            parameters["r"] = need("r")
            w = kr1_free_subgraph(G, args.r, params)
        elif op == "halfclique":
            parameters["r"] = need("r")
            w = half_clique_free_subgraph(G, args.r, params)
        elif op == "densecore":
            eps = args.epsilon if args.epsilon is not None else params.epsilon
            parameters["epsilon"] = eps
            w = dense_core(G, eps, params)
        else:
            parameters["alpha"] = need("alpha")
            cover = multipartite_cover(G, args.alpha, params)
            w = ExtractionWitness("multipartite", cover.parts,
                                  {"alpha": cover.alpha, "c_dblprime": params.c_dblprime,
                                   "t": cover.t, "p": cover.p,
                                   "covered": sum(len(p) for p in cover.parts)})
        result = {"outcome": "ok", "witness": _witness_obj(w)}
        return _finish(args, operation, digest, parameters, result, started,
                       lambda: validate_witness(G, w))

    return _with_declared(args, operation, digest, parameters, started, go)


def cmd_color_or_clique(args) -> int:
    started = time.perf_counter()
    text = _read(args.graph)
    G = fileio.parse_graph_text(text)
    digest = fileio.sha256_digest(text)
    params = _load_params(args)
    if args.delta is not None:
        params = replace(params, delta=args.delta)
    parameters = {"epsilon": args.epsilon, "params": asdict(params)}

    def go() -> int:
        w = color_or_clique(G, args.epsilon, params)
        result = {"outcome": "ok", "witness": _witness_obj(w)}
        return _finish(args, "color-or-clique", digest, parameters, result, started,
                       lambda: validate_witness(G, w))

    return _with_declared(args, "color-or-clique", digest, parameters, started, go)


def cmd_qp_check(args) -> int:
    started = time.perf_counter()
    text = _read(args.drawing)
    drawing = fileio.parse_drawing(text, inexact=args.inexact)
    digest = fileio.sha256_digest(text)
    parameters = {"r": args.r, "radius": args.radius}

    def go() -> int:
        ok, witness = is_r_quasiplanar(drawing, args.r, args.radius)
        result = {"outcome": "ok", "quasiplanar": ok}
        if witness is not None:
            result["witness"] = list(witness)

        def verifier():
            if witness is None:
                return
            curves = truncate_edges(drawing, args.radius).strings
            for i, a in enumerate(witness):
                for b in witness[i + 1:]:
                    if not polylines_intersect(curves[a], curves[b]):
                        raise ExtractorViolation(
                            f"witness edges {a} and {b} do not cross")

        return _finish(args, "qp:check", digest, parameters, result, started, verifier)

    return _with_declared(args, "qp:check", digest, parameters, started, go)


def cmd_qp_sparse(args) -> int:
    started = time.perf_counter()
    text = _read(args.drawing)
    drawing = fileio.parse_drawing(text, inexact=args.inexact)
    digest = fileio.sha256_digest(text)
    params = _load_params(args)
    parameters = {"s": args.s, "params": asdict(params)}

    def go() -> int:
        w = sparse_subgraph(drawing, args.s, params)
        result = {"outcome": "ok", "witness": _witness_obj(w)}

        def verifier():
            cg = crossing_graph(drawing)
            validate_witness(cg, w)

        return _finish(args, "qp:sparse", digest, parameters, result, started, verifier)

    return _with_declared(args, "qp:sparse", digest, parameters, started, go)


def cmd_qp_bound(args) -> int:
    started = time.perf_counter()
    parameters = {"n": args.n, "s": args.s, "C": args.C}
    if args.edges is not None:
        parameters["edges"] = args.edges
    if args.epsilon is not None:
        parameters["epsilon"] = args.epsilon
    digest = fileio.sha256_digest(
        f"bound:{args.n}:{args.s}:{args.C}:{args.edges}:{args.epsilon}")

    def go() -> int:
        result = {"outcome": "ok", "bound": edge_bound(args.n, args.s, args.C)}
        if args.edges is not None:
            result["holds"] = bool(args.edges <= result["bound"])
        if args.epsilon is not None:
            result["dense_threshold"] = dense_threshold(args.n, args.epsilon)
        return _finish(args, "qp:bound", digest, parameters, result, started, None)

    return _with_declared(args, "qp:bound", digest, parameters, started, go)


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    which = args.which
    parameters: dict = {"oracle": which}
    if which == "crossings":
        text = _read(args.drawing)
        drawing = fileio.parse_drawing(text, inexact=args.inexact)
        digest = fileio.sha256_digest(text)
        parameters["r"] = args.r
        found = pairwise_crossing_exact(drawing, args.r)
        result = {"outcome": "ok", "found": found is not None}
        if found is not None:
            result["edges"] = list(found)
    else:
        text = _read(args.graph)
        G = fileio.parse_graph_text(text)
        digest = fileio.sha256_digest(text)
        if which == "mis":
            vs = max_independent_set_exact(G)
            result = {"outcome": "ok", "size": len(vs), "vertices": list(vs)}
        elif which == "clique":
            vs = max_clique_exact(G)
            result = {"outcome": "ok", "size": len(vs), "vertices": list(vs)}
        elif which == "kpfree":
            parameters["p"] = args.p
            vs = max_kp_free_subset_exact(G, args.p)
            result = {"outcome": "ok", "size": len(vs), "vertices": list(vs)}
        elif which == "sep":
            part = min_balanced_separator_exact(G)
            result = {"outcome": "ok", "S": list(part.S), "V1": list(part.V1),
                      "V2": list(part.V2), "size": len(part.S)}
        else:
            a, b = max_balanced_biclique_exact(G)
            result = {"outcome": "ok", "t": len(a), "A": list(a), "B": list(b)}
    _emit(args, f"oracle:{which}", digest, parameters, result,
          {"witness_revalidated": False, "status": "pass", "exhaustive": True},
          started)
    return 0


def cmd_survey(args) -> int:
    sizes = []
    for tok in args.sizes.split(","):
        tok = tok.strip()
        if tok:
            sizes.append(int(tok))
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("--sizes needs a comma list of positive integers")
    template = GeneratorSpec(kind=args.kind, count=sizes[0], seed=args.seed)
    rows = separator_size_survey(template, sizes, trials=args.trials,
                                 strategy=args.strategy)
    beta = fit_loglog_slope([(m, sep) for _, m, sep in rows])
    lines = ["size,median_edges,median_separator"]
    lines.extend(f"{size},{m:g},{sep:g}" for size, m, sep in rows)
    lines.append(f"# fitted_beta={beta:.6f}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringraph",
        description="String graphs from curve families: certified separators, "
                    "extractions and quasiplanar analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", help="output file ('-' or omitted: stdout)")

    report = argparse.ArgumentParser(add_help=False, parents=[out])
    report.add_argument("--verify", choices=("on", "off"), default="on",
                        help="independently re-check the witness (default on)")
    report.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")

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
    p.set_defaults(func=cmd_separator)

    p = sub.add_parser("extract", parents=[report, tuning],
                       help="certified extraction operations")
    p.add_argument("op", choices=("independent", "qindep", "kr1free",
                                  "halfclique", "densecore", "multipartite"))
    p.add_argument("graph")
    p.add_argument("--s", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("color-or-clique", parents=[report, tuning],
                       help="small coloring or large clique, certified")
    p.add_argument("graph")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float)
    p.set_defaults(func=cmd_color_or_clique)

    qp = sub.add_parser("qp", help="quasiplanarity of drawings").add_subparsers(
        dest="which", required=True)

    p = qp.add_parser("check", parents=[report], help="r-quasiplanarity with witness")
    p.add_argument("drawing")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--radius", default="auto")
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(func=cmd_qp_check)

    p = qp.add_parser("sparse", parents=[report, tuning],
                      help="4-quasiplanar edge subset of a 2^s-quasiplanar drawing")
    p.add_argument("drawing")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(func=cmd_qp_sparse)

    p = qp.add_parser("bound", parents=[report], help="edge-count bound evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--edges", type=int)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_qp_bound)

    orc = sub.add_parser("oracle", help="exact brute-force baselines").add_subparsers(
        dest="which", required=True)
    for name in ("mis", "clique", "kpfree", "sep", "biclique"):
        p = orc.add_parser(name, parents=[report])
        p.add_argument("graph")
        if name == "kpfree":
            p.add_argument("--p", type=int, required=True)
        p.set_defaults(func=cmd_oracle)
    p = orc.add_parser("crossings", parents=[report])
    p.add_argument("drawing")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--inexact", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("survey", parents=[out],
                       help="separator size scaling over generated families")
    p.add_argument("--kind", required=True, choices=KINDS)
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
