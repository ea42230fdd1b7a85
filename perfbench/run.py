#!/usr/bin/env python3
"""Benchmark of the stringraph command line, run in-process as a closed loop.

    python3 perfbench/run.py --workload strings_pipeline --seed 1 --seconds 20 --trace 0

One client: each job starts when the previous one returns. Set-up makes the
workload's input files from --seed (three times; setup_s is the median), then
the loop runs the jobs in order, pass after pass, for --seconds and at least
one full pass. Times are scaled to a reference interpreter speed (see
SpeedScale). Every job's reports are checked after the loop. With
--trace 0 the last line of output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(see spans.py). --workload all runs each workload in its own process and
prints every metric prefixed with the workload name.

The library is imported from src/ of the checkout this file lives in.
Inputs, span files and run records go under .perfbench/ in that checkout.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("strings_pipeline", "extract_suite", "convex_qp")
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s", "job_s.p50": "s", "job_s.tail": "s", "jobs_per_s": "1/s",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "witness_ratio": "ratio",
    "sep_size_ratio": "ratio",
}


def _load_library() -> None:
    if not (SRC / "stringraph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stringraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import stringraph
    if Path(stringraph.__file__).resolve().parent != (SRC / "stringraph").resolve():
        sys.exit(f"perfbench: stringraph imported from {stringraph.__file__}, not {SRC}")


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "commit": _git_commit(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Machine-speed correction.
#
# The interpreter's speed on a shared machine drifts by tens of percent over
# seconds. A fixed pure-Python kernel, timed shortly before each measured
# interval, tracks that drift; each interval is multiplied by
# reference kernel time / measured kernel time, i.e. reported at the speed
# the kernel has on the reference machine (a 2-vCPU x86-64 VM, Python 3.11).
# The kernel runs with the garbage collector off, so the program's heap
# cannot slow it. Raw wall times are printed next to the scaled ones.

_REF_ARITH_S = 0.0021
_REF_ALLOC_S = 0.0037
_PROBE_EVERY_S = 0.25


def _kernel_arith() -> int:
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _kernel_alloc() -> int:
    rng = random.Random(5)
    xs = sorted((rng.random(), i, Fraction(i, 7)) for i in range(1500))
    return len({i: (f + 1, a) for a, i, f in xs})


class SpeedScale:
    """Factor that maps wall seconds now to seconds at reference speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self.factors: list[float] = []
        self._last = float("-inf")

    def update(self, force: bool = False) -> float:
        now = time.perf_counter()
        if force or now - self._last >= _PROBE_EVERY_S:
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                _kernel_arith()
                t1 = time.perf_counter()
                _kernel_alloc()
                t2 = time.perf_counter()
            finally:
                if enabled:
                    gc.enable()
            self.factor = ((_REF_ARITH_S / (t1 - t0)) * (_REF_ALLOC_S / (t2 - t1))) ** 0.5
            self.factors.append(self.factor)
            self._last = time.perf_counter()
        return self.factor


# ---------------------------------------------------------------------------
# Jobs.

@dataclass
class Run:
    ns: int
    scaled_s: float              # ns / 1e9 at reference speed
    digest: str                  # over exit codes and every step's output
    step_digests: list[str]
    codes: list[int]
    texts: Optional[list[str]]   # kept for a job's first run only
    errors: str


def run_job(job, speed: SpeedScale) -> Run:
    from stringraph import cli

    before = speed.update()
    codes, texts, errors = [], [], io.StringIO()
    t0 = time.perf_counter_ns()
    for step in job.steps:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(errors):
            codes.append(cli.main(step.argv))
        texts.append(out.getvalue())
    ns = time.perf_counter_ns() - t0
    # A job longer than the probe interval gets a fresh probe after it too.
    factor = (before * speed.update()) ** 0.5
    for i, step in enumerate(job.steps):
        if step.output:
            texts[i] = Path(step.output).read_text(encoding="utf-8")
    step_digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
    digest = hashlib.sha256(json.dumps([codes, step_digests]).encode()).hexdigest()
    return Run(ns, ns / 1e9 * factor, digest, step_digests, codes, texts, errors.getvalue())


def run_pass(jobs, speed: SpeedScale, runs: list, seen: set, tracer=None,
             label: str = "") -> int:
    """Run every job once; returns the summed job time in ns."""
    total = 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{label}{job.name}"
        run = run_job(job, speed)
        total += run.ns
        _keep(runs, seen, i, run)
    return total


def _keep(runs: list, seen: set, index: int, run: Run) -> None:
    if index in seen:
        run.texts = None
    seen.add(index)
    runs.append((index, run))


def closed_loop(jobs, seconds: float, speed: SpeedScale) -> tuple[list, float]:
    run_job(jobs[0], speed)  # warm-up, not counted
    runs: list = []
    seen: set = set()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        _keep(runs, seen, i % len(jobs), run_job(jobs[i % len(jobs)], speed))
        i += 1
    return runs, time.perf_counter() - start


def judge(jobs, runs: list) -> tuple[int, list[str], dict]:
    """Check each job's first run in full and every later run against it.

    Returns the failed run count, the failure messages, and for the run
    record each job's report digests, quality samples and median time.
    """
    reference: dict[int, tuple[str, Optional[str]]] = {}
    failures: list[str] = []
    digests: dict[str, list[str]] = {}
    quality: dict[str, dict[str, float]] = {}
    job_s: dict[str, list[float]] = {}
    for index, run in runs:
        job = jobs[index]
        job_s.setdefault(job.name, []).append(run.scaled_s)
        if index not in reference:
            error = None
            expected = [step.expect for step in job.steps]
            if run.codes != expected:
                error = f"exit codes {run.codes}, expected {expected}: {run.errors.strip()}"
            else:
                try:
                    quality[job.name] = job.check(run.texts)
                except Exception as exc:  # any failed check fails the job, the run goes on
                    error = f"{type(exc).__name__}: {exc}"
            reference[index] = (run.digest, error)
            digests[job.name] = run.step_digests
        digest, error = reference[index]
        if error is None and run.digest != digest:
            error = "report differs from the job's first run"
        if error is not None:
            failures.append(f"{job.name}: {error}")
    return len(failures), failures, {
        "report_sha256": digests, "quality": quality,
        "job_s": {name: statistics.median(ts) for name, ts in job_s.items()}}


# ---------------------------------------------------------------------------
# One workload in this process.

def _setup(workloads, name: str, seed: int, work: Path, size: str):
    work.mkdir()
    return workloads.WORKLOADS[name](random.Random(seed), work, size)


def measure(args, size: str = "full") -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    record = run_record(args)
    speed = SpeedScale()
    try:
        if args.trace:
            tracer = spans.Tracer()
            tracer.job = "setup"
            with tracer.patched(spans.SETUP_TRACED):
                jobs = _setup(workloads, args.workload, args.seed, scratch / "0", size)
            runs: list = []
            seen: set = set()
            overheads, traced_ns, passes = [], 0, 0
            run_job(jobs[0], speed)  # warm-up, not counted
            deadline = time.perf_counter() + args.seconds
            while passes == 0 or time.perf_counter() < deadline:
                plain_ns = run_pass(jobs, speed, runs, seen)
                with tracer.patched():
                    ns = run_pass(jobs, speed, runs, seen, tracer, f"{passes}:")
                traced_ns += ns
                overheads.append((ns - plain_ns) / 1e9)
                passes += 1
            values = spans.layer_metrics(tracer.spans, passes, traced_ns, overheads)
            units = spans.metric_units()
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            extra = {"passes": passes}
        else:
            setups = []
            for k in range(SETUP_REPEATS):
                before = speed.update(force=True)
                t0 = time.perf_counter()
                jobs = _setup(workloads, args.workload, args.seed, scratch / str(k), size)
                elapsed = time.perf_counter() - t0
                setups.append(elapsed * (before * speed.update(force=True)) ** 0.5)
            gc.collect()
            runs, wall = closed_loop(jobs, args.seconds, speed)
            raw = sorted(run.ns / 1e9 for _, run in runs)
            extra = {"wall_s": wall, "raw_job_s.p50": statistics.median(raw),
                     "raw_jobs_per_s": len(raw) / wall,
                     "speed_factor.p50": statistics.median(speed.factors),
                     "speed_factor.min": min(speed.factors),
                     "speed_factor.max": max(speed.factors),
                     "tail_percentile": 100 * (len(raw) - 10) / len(raw)
                     if len(raw) >= 11 else 100.0}
        failed, failures, per_job = judge(jobs, runs)
        if not args.trace:
            values = end_to_end(runs, setups, failed, per_job["quality"])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = len(runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    log = {"record": record, **extra, "failures": failures, **per_job, "result": result}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(log, indent=1, sort_keys=True) + "\n")
    print("# run " + json.dumps(record, sort_keys=True))
    print(f"# {attempted} jobs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6f}); " +
          ", ".join(f"{k} {v:.6g}" for k, v in extra.items()))
    for line in failures[:10]:
        print(f"# FAILED {line}")
    return result


def end_to_end(runs: list, setups: list[float], failed: int,
               quality: dict[str, dict[str, float]]) -> dict[str, float]:
    """Times are at reference speed (see SpeedScale); quality ratios are
    means over the distinct jobs that report them."""
    times = sorted(run.scaled_s for _, run in runs)
    n = len(times)

    def mean_of(name: str) -> float:
        xs = [q[name] for q in quality.values() if name in q]
        return statistics.fmean(xs) if xs else 0.0

    return {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(times),
        # The highest percentile with at least ten jobs beyond it: the 11th
        # slowest job, or the slowest when fewer than 11 ran.
        "job_s.tail": times[n - 11] if n >= 11 else times[-1],
        # One client, so throughput is jobs over the time spent in jobs.
        "jobs_per_s": n / sum(times),
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "witness_ratio": mean_of("witness_ratio"),
        "sep_size_ratio": mean_of("sep_size_ratio"),
    }


# ---------------------------------------------------------------------------
# Every workload, one process each, so peak RSS stays per workload.

def measure_all(args) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}\n{proc.stderr}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
            print(f"{name:18s} {key:45s} {metric['value']:.6g} {metric['unit']}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_library()
    result = measure_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
