"""Tests of the benchmark harness itself, at the ``--smoke`` size.

Run with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402
from spans import layer_self_times, self_times, top_level_seconds  # noqa: E402
from workloads import REP_S, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """One output directory, so the kernel is compiled once."""
    return tmp_path_factory.mktemp("bench-out")


def run_bench(out: Path, *args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "bench.py"),
         "--smoke", "--out", str(out), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_names_match_benchmark_json():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/bench.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_end_to_end_metric_for_every_workload(out):
    proc, result = run_bench(out, "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}/{m}" for w in WORKLOADS for m in bench.E2E}
    for entry in result["metrics"].values():
        assert entry["value"] > 0


def units(metrics: dict) -> dict:
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_harness_invocation_emits_exact_metric_sets(out):
    proc, result = run_bench(out, "--workload", "halo_faults_kernel",
                             "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["attempted"] >= bench.MIN_REPS

    proc, result = run_bench(out, "--workload", "halo_faults_kernel",
                             "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert units(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["resilience.fault_events"] == 2
    assert metrics["kernel.esc.deliver.n"] > 0
    assert metrics["sim.loop_s"] <= metrics["sim.run_s"]
    trace = json.loads((out / "trace.json").read_text())["halo_faults_kernel"]
    assert {"repro.topology", "repro.sim", "repro.sim.vec.kernel"} <= set(
        trace["self_time_s"])
    top = [s for s in trace["spans"] if s["parent"] is None
           and s["workload"] == "halo_faults_kernel" and s["rep"] == 1]
    assert [s["name"] for s in top][:2] == ["import", "repro.topology"]
    assert top[-1]["name"] == "teardown"


def test_corrupted_reference_counts_as_failure(out, tmp_path):
    reference = bench.load_reference()
    ctx = {"profile": "smoke", "seed": 0, "env": bench.child_env(out),
           "tmp": tmp_path, "reference": reference}
    assert bench.sim_rep(ctx, "sat490_kernel", 0)["failed"] == 0
    reference["smoke"]["sat490_kernel"]["0"] = "0" * 64
    rep = bench.sim_rep(ctx, "sat490_kernel", 0)
    assert rep["failed"] == rep["attempted"] == 1
    assert "reference" in rep["errors"][0]


def fake_rep(rate, delay):
    def sim_rep(ctx, name, rep):
        time.sleep(delay)
        return {"attempted": 1, "failed": 0, "errors": [], "metrics": {
            "setup_s": 0.5, "pkts_per_s": rate * (1 + rep % 3),
            "peak_rss_mb": 100.0}}
    return sim_rep


def test_rep_count_and_statistic_do_not_depend_on_speed(monkeypatch):
    """A rep that runs 50 times faster gets the same number of reps and
    the same statistic, the median, so only its rate changes.  Each rep
    is scaled by the mean of the host probes on either side of it: on a
    host running k times slower than the reference, rates are multiplied
    by k and times divided by it; memory stays as measured."""
    runs = []
    for rate, delay in ((1.0, 0.05), (50.0, 0.001)):
        # The n-th probe reads n + 1 times the reference, so rep r, between
        # probes r and r + 1, ran r + 1.5 times slower than the reference.
        calls = itertools.count()
        monkeypatch.setattr(bench.HostProbe, "sample", lambda self: (
            bench.REF_PROBE_S * (1 + next(calls))))
        monkeypatch.setattr(bench, "sim_rep", fake_rep(rate, delay))
        runs.append(bench.timed_runs({}, ["sat490_kernel"], 15.0, None)
                    ["sat490_kernel"])
    slow, fast = runs
    reps = int(15.0 / REP_S["sat490_kernel"])
    assert slow["reps"] == fast["reps"] == reps
    k = [r + 1.5 for r in range(reps)]
    value = {m: e["value"] for m, e in slow["metrics"].items()}
    assert value == pytest.approx({
        "setup_s": statistics.median(0.5 / x for x in k),
        "pkts_per_s": statistics.median((1 + r % 3) * x for r, x in enumerate(k)),
        "peak_rss_mb": 100.0})
    assert fast["metrics"]["pkts_per_s"]["value"] == pytest.approx(
        50 * value["pkts_per_s"])


def test_deadline_stops_a_run_on_a_far_too_slow_host(monkeypatch):
    """Past DEADLINE_FACTOR times its budget a run starts no more reps,
    but it always makes MIN_REPS."""
    monkeypatch.setattr(bench.HostProbe, "sample",
                        lambda self: bench.REF_PROBE_S)
    monkeypatch.setattr(bench, "sim_rep", fake_rep(1.0, 0.05))
    monkeypatch.setattr(bench, "DEADLINE_FACTOR", 0.001)
    res = bench.timed_runs({}, ["sat490_kernel"], 15.0, None)["sat490_kernel"]
    assert res["reps"] == bench.MIN_REPS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench(tmp_path / "out", "--workload", "sat490_kernel",
                             cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "b", "start": 3.5, "end": 5.0, "parent": 2},
        {"id": 4, "name": "a", "start": 12.0, "end": 13.0, "parent": None},
    ]
    assert self_times(spans) == [5.0, 3.0, 1.5, 1.5, 1.0]
    assert layer_self_times(spans) == {"a": 6.0, "b": 4.5, "c": 1.5}
    assert top_level_seconds(spans) == 11.0


def test_compare_pairs_full_size_runs_by_seed(tmp_path):
    def record(seed, value, profile="full", trace=0):
        return {"workload": "w", "seed": seed, "trace": trace,
                "profile": profile, "attempted": 1, "failed": 0,
                "metrics": {"pkts_per_s": {"value": value, "unit": "1/s"}}}

    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text("\n".join(json.dumps(r) for r in [
        record(0, 10.0), record(1, 20.0), record(0, 1.0, profile="smoke"),
        record(2, 5.0, trace=1)]))
    change.write_text("\n".join(json.dumps(r) for r in [
        record(1, 21.0), record(0, 11.0), record(3, 99.0)]))
    p, c = compare.paired(compare.load_runs(parent)["w"],
                          compare.load_runs(change)["w"], "pkts_per_s")
    assert (p, c) == ([10.0, 20.0], [11.0, 21.0])


@pytest.mark.parametrize("parent, change, better, expected", [
    # Every pair won, medians apart by more than the parent's IQR.
    ([100 + i for i in range(10)], [120 + i for i in range(10)], "higher",
     "improved"),
    ([1.0 + 0.01 * i for i in range(10)], [0.8 + 0.01 * i for i in range(10)],
     "lower", "improved"),
    # Too few pairs to claim a gain.
    ([100 + i for i in range(5)], [120 + i for i in range(5)], "higher",
     "no-worse"),
    # Within the bound.
    ([100 + i for i in range(10)], [97 + i for i in range(10)], "higher",
     "no-worse"),
    # Worse than the bound.
    ([100 + i for i in range(10)], [80 + i for i in range(10)], "higher",
     "regressed"),
    ([1.0] * 10, [1.2] * 10, "lower", "regressed"),
    # Spread wider than the bound, and the sides overlap.
    ([60, 140] * 5, [58, 141] * 5, "higher", "unresolved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, bound=0.1) == expected
