"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def small_jobs(bench):
    """The warm-up jobs plus the cheapest jobs of the first deck, as a deck."""
    cheap = sorted((job for _, job in bench.deck(seed=5, index=0)), key=repr)[:3]
    return list(enumerate(bench.warmup_jobs() + cheap))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_reproduces_job_list(name, tmp_path):
    bench = workloads.make(name, None, str(tmp_path))
    first = [bench.deck(seed=7, index=i) for i in range(3)]
    again = [bench.deck(seed=7, index=i) for i in range(3)]
    other = [bench.deck(seed=8, index=i) for i in range(3)]
    assert first == again
    assert first != other
    # Every seed and deck runs the same job classes.
    classes = [sorted(cls for cls, _ in deck) for deck in first + other]
    assert all(c == classes[0] for c in classes)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_match_untraced(name, lib, tmp_path):
    bench = workloads.make(name, lib, str(tmp_path))
    jobs = small_jobs(bench)
    untraced = run.run_pass(bench, [jobs])
    tracer = spans.Tracer(lib)
    original = lib.codes.verify_code
    tracer.install()
    try:
        traced = run.run_pass(bench, [jobs], tracer=tracer)
    finally:
        tracer.uninstall()
    assert lib.codes.verify_code is original
    assert untraced.failures == traced.failures == []
    assert untraced.outputs == traced.outputs
    metrics = tracer.metrics()
    shares = [metrics[f"share.{layer}"] for layer in spans.LAYERS + ("bench",)]
    assert sum(shares) == pytest.approx(1.0)
    assert all(share >= 0 for share in shares)
    assert len(tracer.spans) >= len(jobs)


def test_wrong_verdict_is_counted(lib, tmp_path, monkeypatch):
    bench = workloads.make("construct-verify", lib, str(tmp_path))
    jobs = list(enumerate(bench.warmup_jobs()))
    corrupted = sum(job[3] is not None for _, job in jobs)
    assert corrupted
    monkeypatch.setattr(lib.codes, "verify_code", lambda code: True)
    result = run.run_pass(bench, [jobs])
    assert len(result.failures) == corrupted
    metrics = run.end_to_end(result, [1.0])
    assert metrics["ok_frac"][0] == pytest.approx(1 - corrupted / len(jobs))


def test_wrong_alpha_is_counted(lib, tmp_path, monkeypatch):
    bench = workloads.make("alpha-exact", lib, str(tmp_path))
    exact_mis = lib.graph.exact_mis
    monkeypatch.setattr(lib.graph, "exact_mis", lambda g, *a: set(sorted(exact_mis(g))[1:]))
    result = run.run_pass(bench, [[(0, ("full", 1, 6, None)), (1, ("layer", 2, 7, 3))]])
    assert len(result.failures) == 2


class WaitingBench:
    """Jobs that wait in a sleep or in a child process, using no CPU here."""

    def execute(self, job):
        kind, seconds = job
        if kind == "sleep":
            time.sleep(seconds)
        else:
            subprocess.run([sys.executable, "-c", f"import time; time.sleep({seconds})"],
                           check=True)
        return seconds

    def check(self, job, raw):
        return str(raw)


def test_sleeps_and_child_processes_count_as_job_time():
    jobs = [(0, ("sleep", 0.05)), (1, ("child", 0.05))]
    result = run.run_pass(WaitingBench(), [jobs])
    assert result.failures == []
    assert all(t >= 0.05 for t in result.latencies)
    factors = calibrate.scale_factors(result.kernel_times, result.kernel_marks)
    metrics = run.end_to_end(result, [1.0])
    assert metrics["job_ms.p50"][0] >= 50 * min(factors)
    assert metrics["jobs_per_s"][0] <= 2 / (0.1 * min(factors))


def fixed_speed_pass(latencies):
    """A pass of jobs whose calibration factor is exactly 1."""
    result = run.Pass()
    result.latencies = list(latencies)
    result.jobs = [("job", i) for i in range(len(latencies))]
    result.kernel_times = [calibrate.REFERENCE_S]
    result.kernel_marks = [1] * len(latencies)
    return result


def test_slowdown_of_a_minority_of_a_class_shows():
    base = run.end_to_end(fixed_speed_pass([0.01] * 9), [1.0])
    slowed = run.end_to_end(fixed_speed_pass([0.01] * 6 + [0.03] * 3), [1.0])
    assert base["jobs_per_s"][0] == pytest.approx(100)
    assert slowed["jobs_per_s"][0] == pytest.approx(9 / 0.15)
    assert slowed["job_ms.p90"][0] == pytest.approx(30)
    assert base["job_ms.p90"][0] == pytest.approx(10)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_end_to_end_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "alpha-exact",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_oracle_alpha_matches_known_values():
    import oracle
    assert {n: oracle.alpha(1, n) for n in oracle.ALPHA_L1} == oracle.ALPHA_L1
