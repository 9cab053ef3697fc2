#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarise one.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/e2e/compare.py RUNS.jsonl

Inputs are the ``runs.jsonl`` files ``bench.py`` appends to (one record
per workload per invocation; traced and ``--smoke`` records are
skipped).  Each parent run is paired with a change run of the same
workload and seed, in file order, so run the two commits alternately.  Each (workload, end-to-end metric) row gets
one verdict, with the direction and bound read from ``BENCHMARK.json``:

``improved``
    at least ``MIN_PAIRS`` pairs, the change wins at least ``WIN_RATE``
    of them (ties count for neither), and the medians differ in its
    favour by more than the parent's interquartile range;
``unresolved``
    the run-to-run spread (interquartile range over median, the larger
    of the two sides) is wider than the bound, and not every change run
    beats every parent run;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``no-worse``
    otherwise.

A ``failed`` row per workload compares failed operations; when the
change fails more often, no metric of that workload counts as improved.
Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

MIN_PAIRS = 10
WIN_RATE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """The verdict for one metric; ``parent[i]`` and ``change[i]`` ran on
    the same seed, and *better* is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (cm - pm)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_RATE * len(pairs)
            and gain > p3 - p1):
        return "improved"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not min(sign * c for c in change) > max(
            sign * p for p in parent):
        return "unresolved"
    if pm and -gain / abs(pm) > bound:
        return "regressed"
    return "no-worse"


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced full-size run records of *path*, grouped by workload, in
    file order."""
    runs: Dict[str, List[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"] and record["profile"] == "full":
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def paired(parent: List[dict], change: List[dict],
           metric: str) -> Tuple[List[float], List[float]]:
    """*metric* of parent and change runs of the same seed, matched in
    file order; runs without a partner are left out."""
    pending: Dict[int, List[float]] = {}
    for r in change:
        if metric in r["metrics"]:
            pending.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    p, c = [], []
    for r in parent:
        if metric in r["metrics"] and pending.get(r["seed"]):
            p.append(r["metrics"][metric]["value"])
            c.append(pending[r["seed"]].pop(0))
    return p, c


def summarise(runs: Dict[str, List[dict]], metrics: List[dict]) -> None:
    print(f"{'workload':20s} {'metric':12s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for workload, records in runs.items():
        for m in metrics:
            vals = values(records, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"{workload:20s} {m['name']:12s} {len(vals):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {(q3 - q1) / med:10.2%} "
                  f"{m['bound']:6.0%}")


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            metrics: List[dict]) -> int:
    print(f"{'workload':20s} {'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'delta':>8s} {'wins':>6s} verdict")
    regressed = False
    for workload in parent:
        if workload not in change:
            print(f"{workload:20s} missing from the change's runs")
            continue
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        more_failures = c_fail > p_fail
        for m in metrics:
            p, c = paired(p_runs, c_runs, m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["better"], m["bound"])
            if v == "improved" and more_failures:
                v = "no-worse"
            regressed |= v == "regressed"
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            print(f"{workload:20s} {m['name']:12s} "
                  f"{pq[1]:12.6g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                  f"{cq[1]:12.6g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{(cq[1] - pq[1]) / pq[1]:+8.2%} "
                  f"{wins:2d}/{len(p):<3d} {v}")
        v = "regressed" if more_failures else "no-worse"
        regressed |= more_failures
        print(f"{workload:20s} {'failed':12s} {p_fail:36.4%} {c_fail:36.4%} "
              f"{'':8s} {'':6s} {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    if len(argv) == 1:
        summarise(load_runs(Path(argv[0])), metrics)
        return 0
    return compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])), metrics)


if __name__ == "__main__":
    raise SystemExit(main())
