"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout the script sits in.
One client runs a closed loop: each job starts when the previous one and
its output check have finished.  The loop runs whole decks (see
``workloads``) until the jobs have taken ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
jobs twice, untraced and then traced, checks that both passes give
byte-identical outputs, prints the per-layer metrics and writes the spans to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from typing import Dict, Iterable, List, Optional, Tuple

import calibrate
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 2


def load_library() -> types.SimpleNamespace:
    """Import ``delcodes`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "delcodes", "__init__.py")):
        raise SystemExit(f"error: no delcodes package under {SRC}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("delcodes")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported delcodes from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"delcodes.{name}") for name in spans.LAYERS}
    return types.SimpleNamespace(package=package, **modules)


def setup(workload: str, seed: int, workdir: str):
    """Import, generate the first deck and warm up; returns (bench, decks, seconds)."""
    start = time.perf_counter()
    lib = load_library()
    bench = workloads.make(workload, lib, workdir)
    decks = bench.decks(seed)
    first = next(decks)
    for job in bench.warmup_jobs():
        bench.check(job, bench.execute(job))
    # exact_mis imports scipy on its first call; every workload pays it here.
    lib.graph.exact_mis(lib.graph.build_graph(1, 3))
    calibrate.kernel()
    return bench, itertools.chain([first], decks), time.perf_counter() - start


class Pass:
    """Latencies, failures, outputs and calibration samples of one pass."""

    def __init__(self):
        self.jobs: List[tuple] = []
        self.classes: List[tuple] = []
        self.latencies: List[float] = []
        self.outputs: List[str] = []
        self.failures: List[str] = []
        self.failed_jobs: List[int] = []
        self.deck_ends: List[int] = []
        self.kernel_times: List[float] = []
        self.kernel_marks: List[int] = []
        self.wall = 0.0
        self.cpu = 0.0

    @property
    def job_time(self) -> float:
        return sum(self.latencies)


def run_job(bench, job, result: Pass, tracer=None) -> None:
    job_id = len(result.jobs) + 1
    error = raw = None
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_job(job_id)
    try:
        raw = bench.execute(job)
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_job()
    result.latencies.append(time.perf_counter() - start)
    result.jobs.append(job)
    if error is None:
        try:
            result.outputs.append(bench.check(job, raw))
            return
        except Exception as exc:  # wrong answers and checker errors alike
            error = f"{type(exc).__name__}: {exc}"
    result.outputs.append("")
    result.failed_jobs.append(job_id - 1)
    result.failures.append(f"job {job_id} {job!r}: {error}")


def run_pass(bench, decks: Iterable[List[Tuple[tuple, tuple]]],
             seconds: Optional[float] = None, tracer=None) -> Pass:
    """Run whole decks of (class, job) pairs until the jobs have taken
    ``seconds`` (or all decks).

    Untraced passes sample the calibration kernel after every
    ``calibrate.EVERY_S`` of job time; its time is not job time.
    """
    result = Pass()
    wall, cpu = time.perf_counter(), time.process_time()
    since_kernel = 0.0
    for deck in decks:
        for cls, job in deck:
            result.classes.append(cls)
            run_job(bench, job, result, tracer)
            since_kernel += result.latencies[-1]
            if tracer is None and since_kernel >= calibrate.EVERY_S:
                result.kernel_times.append(calibrate.kernel())
                since_kernel = 0.0
            result.kernel_marks.append(len(result.kernel_times))
        result.deck_ends.append(len(result.jobs))
        if seconds is not None and result.job_time >= seconds:
            break
    if not result.kernel_times:
        result.kernel_times.append(calibrate.kernel())
    result.wall = time.perf_counter() - wall
    result.cpu = time.process_time() - cpu
    return result


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running this script's set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(result: Pass, setup_times: List[float]) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics from job times scaled to the reference host speed.

    A job's time is its wall time, so work in child processes or threads,
    sleeps and blocking I/O all count.  Each job's time is scaled by the
    calibration factor around it; the rate and the percentiles are taken
    over the scaled times of every single job.
    """
    factors = calibrate.scale_factors(result.kernel_times, result.kernel_marks)
    ms = [t * f * 1e3 for t, f in zip(result.latencies, factors)]
    attempted = len(ms)
    ok = attempted - len(result.failed_jobs)
    return {
        "jobs_per_s": (ok / (sum(ms) / 1e3), "1/ref-s"),
        "job_ms.p50": (statistics.median(ms), "ref-ms"),
        "job_ms.p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ref-ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok / attempted, "fraction"),
    }


def per_layer(bench, untraced: Pass, spans_path: str):
    """Replay the untraced pass's jobs with the tracer installed."""
    tracer = spans.Tracer(bench.lib)
    tracer.install()
    try:
        traced = run_pass(bench, [list(zip(untraced.classes, untraced.jobs))],
                          tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    units = dict(spans.REPORTED)
    metrics = {name: (value, units[name]) for name, value in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = (traced.job_time / untraced.job_time - 1, "fraction")
    metrics["process.cpu_per_wall"] = (untraced.cpu / untraced.wall, "fraction")
    return metrics, traced


def summary(untraced: Pass, failed: int, attempted: int) -> dict:
    """Raw, unscaled figures of the untraced pass, for the log."""
    ms = sorted(t * 1e3 for t in untraced.latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "jobs": len(ms), "decks": len(untraced.deck_ends),
        "raw_job_ms.p50": round(statistics.median(ms), 4), "raw_job_ms.p90": round(p90, 4),
        "beyond_p90": sum(t > p90 for t in ms),
        "job_s": round(untraced.job_time, 3), "loop_wall_s": round(untraced.wall, 3),
        "cpu_per_wall": round(untraced.cpu / untraced.wall, 4),
        "kernel_ms.median": round(statistics.median(untraced.kernel_times) * 1e3, 4),
        "failed_frac": failed / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        bench, decks, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        untraced = run_pass(bench, decks, args.seconds)
        failures = list(untraced.failures)
        if args.trace:
            path = os.path.join(ROOT, ".perfbench-out",
                                f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, traced = per_layer(bench, untraced, path)
            failures += traced.failures
            failures += [f"job {i + 1}: traced output differs from the untraced one"
                         for i, (a, b) in enumerate(zip(untraced.outputs, traced.outputs))
                         if a != b]
            attempted = len(untraced.jobs) + len(traced.jobs)
        else:
            setups = [setup_s] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            metrics = end_to_end(untraced, setups)
            attempted = len(untraced.jobs)

    for line in failures[:20]:
        print("FAIL", line, file=sys.stderr)
    print(json.dumps(dict(workload=args.workload, seed=args.seed,
                          **summary(untraced, len(failures), attempted))))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
