"""Spans around the library's public functions, recorded from the outside.

The tracer replaces each listed function by a wrapper in every stringraph
module that holds a reference to it (`from .x import f` makes copies, and a
call through an unpatched copy would escape the trace), and restores the
originals on exit. Spans live in memory as
[id, parent id, job id, name, start ns, end ns, attributes] and are written
out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns

# (module, function) pairs that get a span.
TRACED = (
    ("generators", "generate"),
    ("geometry", "intersection_graph"),
    ("quasiplanar", "truncate_edges"),
    ("quasiplanar", "crossing_graph"),
    ("quasiplanar", "is_r_quasiplanar"),
    ("quasiplanar", "sparse_subgraph"),
    ("separator", "find_balanced_separator"),
    # The strategies behind find_balanced_separator; "auto" runs the first two
    # on graphs above 14 vertices and the exact search below.
    ("separator", "_bfs_layer"),
    ("separator", "_degree_peel"),
    ("separator", "_exact"),
    ("separator", "validate_partition"),
    ("extract", "independent_set"),
    ("extract", "q_independent_set"),
    ("extract", "kr1_free_subgraph"),
    ("extract", "half_clique_free_subgraph"),
    ("extract", "dense_core"),
    ("extract", "multipartite_cover"),
    ("extract", "color_or_clique"),
    ("extract", "validate_witness"),
    ("graph", "induced_subgraph"),
    ("graph", "clique_in_mask"),
    ("graph", "find_clique"),
    ("graph", "greedy_color"),
    ("graph", "validate_coloring"),
    ("oracles", "max_independent_set_exact"),
    ("oracles", "max_clique_exact"),
    ("fileio", "parse_graph_text"),
    ("fileio", "parse_input"),
    ("fileio", "graph_text"),
    ("fileio", "report_json"),
    ("cli", "main"),
)
SETUP_TRACED = (("generators", "generate"),)
STRATEGIES = ("auto", "bfs_layer", "degree_peel")

# Extra attributes taken from a call, outside its timed interval.
_OBSERVE = {
    "geometry.intersection_graph": lambda args, g: {"n": g.n, "m": g.m},
    "separator._bfs_layer": lambda args, part: {"S": len(part.S)},
    "separator._degree_peel": lambda args, part: {"S": len(part.S)},
    "fileio.parse_graph_text": lambda args, out: {"bytes": len(args[0].encode())},
    "fileio.parse_input": lambda args, out: {"bytes": len(args[0].encode())},
    "fileio.graph_text": lambda args, out: {"bytes": len(out.encode())},
    "fileio.report_json": lambda args, out: {"bytes": len(out.encode())},
}


def _span_names() -> list[str]:
    names = []
    for module, fn in TRACED:
        if fn == "find_balanced_separator":
            names.extend(f"{module}.{fn}.{s}" for s in STRATEGIES)
        else:
            names.append(f"{module}.{fn}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in _span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "geometry.edge_yield": "ratio",
        "separator.degree_peel_win_ratio": "ratio",
        "extract.multipartite_cover.nocover_ratio": "ratio",
        "oracles.refused": "count",
        "fileio.parse_graph_text.bytes_in": "bytes",
        "fileio.parse_input.bytes_in": "bytes",
        "fileio.graph_text.bytes_out": "bytes",
        "fileio.report_json.bytes_out": "bytes",
        "trace.overhead_s": "s",
        "trace.coverage": "ratio",
    })
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = ""

    def _wrap(self, module: str, fn_name: str, fn):
        spans, stack = self.spans, self._stack
        base = f"{module}.{fn_name}"
        observe = _OBSERVE.get(base)
        by_strategy = fn_name == "find_balanced_separator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base
            if by_strategy:
                strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "auto")
                name = f"{base}.{strategy}"
            span = [len(spans), stack[-1] if stack else -1, self.job, name, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = {"raised": type(exc).__name__}
                raise
            finally:
                span[5] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[6] = observe(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets=TRACED):
        """Route every reference to the target functions through spans."""
        modules = [m for name, m in sys.modules.items()
                   if name == "stringraph" or name.startswith("stringraph.")]
        saved = []
        try:
            for module, fn_name in targets:
                original = getattr(sys.modules[f"stringraph.{module}"], fn_name)
                wrapper = self._wrap(module, fn_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            saved.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], passes: int, job_ns: int,
                  overheads_s: list[float]) -> dict[str, float]:
    """Per-layer metrics, per traced pass over the jobs.

    self time is a span's duration minus its traced children's durations.
    trace.coverage is the summed self time of the job spans over the timed
    job wall time; the remainder is benchmark code inside a job, such as the
    output redirection around each CLI call.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_ns[span[1]] += span[5] - span[4]
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    own: dict[str, int] = {}
    for span, kids in zip(spans, child_ns):
        name, dur = span[3], span[5] - span[4]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + dur
        own[name] = own.get(name, 0) + dur - kids

    def of(name: str, attr: str) -> list:
        return [s[6][attr] for s in spans
                if s[3] == name and s[6] is not None and attr in s[6]]

    out: dict[str, float] = {}
    for name in _span_names():
        per = 1 if name == "generators.generate" else passes   # one traced set-up
        out[f"{name}.calls"] = calls.get(name, 0) / per
        out[f"{name}.busy_s"] = busy.get(name, 0) / 1e9 / per
        out[f"{name}.self_s"] = own.get(name, 0) / 1e9 / per

    pairs = sum(n * (n - 1) // 2 for n in of("geometry.intersection_graph", "n"))
    out["geometry.edge_yield"] = (
        sum(of("geometry.intersection_graph", "m")) / pairs if pairs else 0.0)

    wins = duels = 0
    children: dict[int, dict[str, int]] = {}   # span ids equal list indices
    for s in spans:
        if (s[3] in ("separator._bfs_layer", "separator._degree_peel") and s[1] >= 0
                and spans[s[1]][3] == "separator.find_balanced_separator.auto"
                and s[6] and "S" in s[6]):
            children.setdefault(s[1], {})[s[3]] = s[6]["S"]
    for sizes in children.values():
        if len(sizes) == 2:
            duels += 1
            wins += sizes["separator._degree_peel"] < sizes["separator._bfs_layer"]
    out["separator.degree_peel_win_ratio"] = wins / duels if duels else 0.0

    covers = calls.get("extract.multipartite_cover", 0)
    nocover = of("extract.multipartite_cover", "raised").count("NoCoverFound")
    out["extract.multipartite_cover.nocover_ratio"] = nocover / covers if covers else 0.0
    refused = sum(of(f"oracles.{fn}", "raised").count("TooLarge")
                  for fn in ("max_independent_set_exact", "max_clique_exact"))
    out["oracles.refused"] = refused / passes

    for fn, key in (("parse_graph_text", "bytes_in"), ("parse_input", "bytes_in"),
                    ("graph_text", "bytes_out"), ("report_json", "bytes_out")):
        out[f"fileio.{fn}.{key}"] = sum(of(f"fileio.{fn}", "bytes")) / passes

    out["trace.overhead_s"] = statistics.median(overheads_s)
    job_spans_self = sum(s[5] - s[4] - k for s, k in zip(spans, child_ns)
                         if s[2] != "setup")
    out["trace.coverage"] = job_spans_self / job_ns if job_ns else 0.0
    return out
