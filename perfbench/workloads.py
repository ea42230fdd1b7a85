"""The three benchmark workloads: inputs made from a seed, jobs, and checks.

A job is one or more `stringraph` command lines run in order, each step with
the exit code set-up expects. Set-up writes the input files; the program
under test only ever sees those files. After the timed loop every distinct
job's reports are checked: verification status, an independent re-validation
of the witness with the library validators, and the witness size against a
baseline from `baselines` (code that does not import stringraph).

Sizes are chosen so a 20 s run on two cores completes enough jobs for the
tail percentile to have ten jobs beyond it, and a pass over the jobs is a
fraction of the run.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from stringraph import (Coloring, ExtractionWitness, Graph, GeneratorSpec,
                        SeparatorPartition, validate_coloring,
                        validate_partition, validate_witness)
from stringraph import fileio, generators, geometry

import baselines

FAMILY_KINDS = ("random_segments", "random_polylines", "grid_paths")

# (smallest, largest, count): count families evenly spaced in size, each
# plus a seeded jitter of 0..15 strings, kinds taken in turn. Quality metrics
# are means over the distinct inputs and job times mix all sizes, so many
# inputs of neighbouring sizes keep both steady across seeds. "tiny" is for
# the self-test only.
SIZES = {
    "strings_pipeline": {"full": (100, 400, 24), "tiny": (20, 30, 3)},
    "extract_suite": {"full": (150, 300, 24), "tiny": (30, 40, 3)},
    "extract_oracle": {"full": 40, "tiny": 16},
    "convex_qp": {"full": (8, 9, 10, 8, 9, 10), "tiny": (6, 7)},
}

# Clique bound for the independent-set step of strings_pipeline, whose graph
# does not exist at set-up time: 2^4 = 16 is far above the clique number of
# these families (8 at most, measured up to n = 600).
PIPELINE_S = 4


@dataclass
class Step:
    argv: list[str]
    expect: int = 0
    output: Optional[str] = None  # file the step writes; its text is an output


@dataclass
class Job:
    name: str
    steps: list[Step]
    # Given each step's output text (the report, or the written file), raise
    # if a witness is wrong; return quality samples by metric name.
    check: Callable[[list[str]], dict[str, float]]


@dataclass
class GraphInput:
    """A graph text the checks re-read with the library and with baselines."""
    text: str
    _graph: Optional[Graph] = None
    _adj: Optional[list[int]] = None
    _greedy: dict = field(default_factory=dict)

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = fileio.parse_graph_text(self.text)
        return self._graph

    @property
    def adj(self) -> list[int]:
        if self._adj is None:
            self._adj = baselines.read_graph(self.text)
        return self._adj

    def baseline(self, p: int) -> int:
        """Greedy size of a K_p-free set; p = 2 is the min-degree MIS."""
        if p not in self._greedy:
            self._greedy[p] = (baselines.greedy_mis_size(self.adj) if p == 2
                               else baselines.greedy_kp_free_size(self.adj, p))
        return self._greedy[p]


# ---------------------------------------------------------------------------
# Report checks.

def _report(text: str) -> dict:
    rep = json.loads(text)
    status = rep["verification"]["status"]
    if status != "pass":
        raise ValueError(f"{rep['operation']}: verification status {status!r}")
    return rep


def _witness(rep: dict) -> ExtractionWitness:
    w = rep["result"]["witness"]
    verts = tuple(tuple(v) if isinstance(v, list) else v for v in w["vertices"])
    return ExtractionWitness(w["kind"], verts, w["certificate"])


def _separator_ratio(gin: GraphInput, text: str) -> float:
    res = _report(text)["result"]
    part = SeparatorPartition(tuple(res["S"]), tuple(res["V1"]), tuple(res["V2"]))
    validate_partition(gin.graph, part)
    return len(part.S) / math.sqrt(gin.graph.m)


def _check_witness(gin: GraphInput, text: str) -> ExtractionWitness:
    w = _witness(_report(text))
    if w.kind == "coloring":
        validate_coloring(gin.graph, Coloring(w.vertices))
    else:
        validate_witness(gin.graph, w)
    return w


def _kp_free_witness(gin: GraphInput, text: str, p: int) -> ExtractionWitness:
    """A witness that must be K_p-free (independent when p = 2), whatever
    clique size its certificate claims."""
    w = _check_witness(gin, text)
    claimed = 2 if w.kind == "independent" else int(w.certificate["p"])
    if claimed != p:
        raise ValueError(f"witness claims K_{claimed}-freeness, the job asked for K_{p}")
    return w


def _witness_ratio(gin: GraphInput, text: str, p: int) -> float:
    return len(_kp_free_witness(gin, text, p).vertices) / gin.baseline(p)


def _oracle_check(gin: GraphInput, text: str, which: str) -> None:
    res = _report(text)["result"]
    verts = tuple(res["vertices"])
    if which == "mis":
        validate_witness(gin.graph, ExtractionWitness("independent", verts, {}))
        if len(verts) < gin.baseline(2):
            raise ValueError(f"exact MIS {len(verts)} below greedy {gin.baseline(2)}")
    else:
        validate_witness(gin.graph, ExtractionWitness("clique", verts, {}))
        if len(verts) != baselines.clique_number(gin.adj):
            raise ValueError("exact clique size differs from the clique number")


# ---------------------------------------------------------------------------
# Set-up.

def _ladder(workload: str, size: str) -> list[tuple[str, int]]:
    """(kind, size) for every input, in a stride-5 order through the sizes so
    that a pass cut short by the deadline still mixes small and large."""
    lo, hi, count = SIZES[workload][size]
    order = sorted(range(count), key=lambda i: i * 5 % count)
    return [(FAMILY_KINDS[i % len(FAMILY_KINDS)], lo + (hi - lo) * i // (count - 1))
            for i in order]


def _family(kind: str, n: int, seed: int):
    return generators.generate(GeneratorSpec(kind=kind, count=n, seed=seed))


def setup_strings_pipeline(rng: random.Random, work: Path, size: str) -> list[Job]:
    """Family file -> build-graph -> separator and independent set."""
    jobs = []
    for kind, base in _ladder("strings_pipeline", size):
        n = base + rng.randrange(16)
        name = f"{kind}-{n}"
        fam = work / f"{name}.json"
        fam.write_text(fileio.family_json(_family(kind, n, rng.randrange(2 ** 31))))
        g = str(work / f"{name}.txt")

        def check(texts: list[str]) -> dict[str, float]:
            gin = GraphInput(texts[0])
            return {"sep_size_ratio": _separator_ratio(gin, texts[1]),
                    "witness_ratio": _witness_ratio(gin, texts[2], 2)}

        jobs.append(Job(name, [
            Step(["build-graph", str(fam), "-o", g], output=g),
            Step(["separator", g, "--strategy", "auto"]),
            Step(["extract", "independent", g, "--s", str(PIPELINE_S)]),
        ], check))
    return jobs


def _extract_jobs(name: str, path: str, gin: GraphInput) -> list[Job]:
    """Every certified operation on one graph, sized from its clique number so
    the jobs run the recursions rather than the precondition path."""
    omega = baselines.clique_number(gin.adj)
    s = omega.bit_length()                      # smallest s with 2^s > omega
    q = max(1, s - 1)
    r = omega + 1
    n = len(gin.adj)
    # Just under m / n^2, so the edge-count precondition holds despite rounding.
    alpha = max(0, math.floor(baselines.edge_count(gin.adj) / (n * n) * 1e6) - 1) / 1e6
    jobs = []

    def sep_check(texts):
        return {"sep_size_ratio": _separator_ratio(gin, texts[0])}

    def ratio_check(p):
        return lambda texts: {"witness_ratio": _witness_ratio(gin, texts[0], p)}

    def plain_check(texts):
        _check_witness(gin, texts[0])
        return {}

    for strategy in ("auto", "bfs_layer", "degree_peel"):
        jobs.append(Job(f"{name}:separator-{strategy}",
                        [Step(["separator", path, "--strategy", strategy])], sep_check))
    runs = [
        ("independent", ["--s", str(s)], ratio_check(2)),
        ("qindep", ["--s", str(s), "--q", str(q)], ratio_check(2 ** q)),
        ("kr1free", ["--r", str(r)], ratio_check(r - 1)),
        ("halfclique", ["--r", str(r)], ratio_check((r + 1) // 2)),
        ("densecore", [], plain_check),
        ("multipartite", ["--alpha", repr(alpha)], plain_check),
    ]
    for op, flags, check in runs:
        jobs.append(Job(f"{name}:{op}", [Step(["extract", op, path, *flags])], check))
    jobs.append(Job(f"{name}:color-or-clique",
                    [Step(["color-or-clique", path, "--epsilon", "0.5"])], plain_check))
    return jobs


def _write_graph(work: Path, name: str, kind: str, n: int, seed: int
                 ) -> tuple[str, GraphInput]:
    text = fileio.graph_text(geometry.intersection_graph(_family(kind, n, seed)))
    path = work / f"{name}.txt"
    path.write_text(text)
    return str(path), GraphInput(text)


def setup_extract_suite(rng: random.Random, work: Path, size: str) -> list[Job]:
    """Graph files built here, so the timed jobs do no geometry."""
    jobs = []
    for kind, base in _ladder("extract_suite", size):
        n = base + rng.randrange(16)
        name = f"{kind}-{n}"
        path, gin = _write_graph(work, name, kind, n, rng.randrange(2 ** 31))
        jobs.extend(_extract_jobs(name, path, gin))
    # Exact-oracle inputs at the oracles' size cap, less a seeded 0..3.
    # random_polylines is left out: its exact MIS time varies tenfold between
    # seeds at n = 40, which would make job_s.tail a draw over one graph.
    for kind in ("random_segments", "grid_paths"):
        n = SIZES["extract_oracle"][size] - rng.randrange(4)
        name = f"{kind}-{n}"
        path, gin = _write_graph(work, name, kind, n, rng.randrange(2 ** 31))
        for which in ("mis", "clique"):
            def check(texts, gin=gin, which=which):
                _oracle_check(gin, texts[0], which)
                return {}

            jobs.append(Job(f"{name}:oracle-{which}", [Step(["oracle", which, path])], check))
    return jobs


def setup_convex_qp(rng: random.Random, work: Path, size: str) -> list[Job]:
    """Straight-line convex K_n: few strings, Fraction coordinates. The
    crossing pattern is known exactly (interleaving endpoints), which checks
    the geometry as well as the witnesses."""
    jobs = []
    for i, n in enumerate(SIZES["convex_qp"][size]):
        name = f"convex-{n}-{i}"
        path = work / f"{name}.json"
        drawing = _family("convex_chords", n, rng.randrange(2 ** 31))
        path.write_text(fileio.drawing_json(drawing))
        crossings = baselines.convex_crossing_edges(n)
        ref = GraphInput("".join([f"{n * (n - 1) // 2} {len(crossings)}\n",
                                  *(f"{u} {v}\n" for u, v in sorted(crossings))]))
        s = max(3, (n // 2).bit_length())
        cg = str(work / f"{name}.txt")

        def check_qp(texts, n=n, ref=ref):
            res = _report(texts[0])["result"]
            expect = n // 2 < 3   # convex K_n has floor(n/2) pairwise crossing chords
            if res["quasiplanar"] != expect:
                raise ValueError(f"convex K_{n}: quasiplanar should be {expect}")
            if not expect:
                witness = tuple(res["witness"])
                if len(witness) != 3:
                    raise ValueError(f"qp check witness has {len(witness)} edges, not 3")
                validate_witness(ref.graph, ExtractionWitness("clique", witness, {}))
            return {}

        def check_sparse(texts, n=n, ref=ref):
            w = _kp_free_witness(ref, texts[0], 4)
            return {"witness_ratio": len(w.vertices) / baselines.four_quasiplanar_max(n)}

        def check_graph(texts, crossings=crossings, ref=ref):
            adj = baselines.read_graph(texts[0])
            got = {(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                   if adj[u] >> v & 1}
            if got != crossings:
                raise ValueError("crossing graph differs from the interleaving pattern")
            return {"sep_size_ratio": _separator_ratio(ref, texts[1])}

        jobs.append(Job(f"{name}:qp-check", [Step(["qp", "check", str(path), "--r", "3"])],
                        check_qp))
        jobs.append(Job(f"{name}:qp-sparse",
                        [Step(["qp", "sparse", str(path), "--s", str(s)])], check_sparse))
        jobs.append(Job(f"{name}:crossing-separator", [
            Step(["build-graph", str(path), "-o", cg], output=cg),
            Step(["separator", cg, "--strategy", "auto"]),
        ], check_graph))
    return jobs


WORKLOADS = {
    "strings_pipeline": setup_strings_pipeline,
    "extract_suite": setup_extract_suite,
    "convex_qp": setup_convex_qp,
}
