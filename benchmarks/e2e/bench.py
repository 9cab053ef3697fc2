#!/usr/bin/env python3
"""End-to-end benchmark of the network simulator.

Runs the workloads of ``BENCHMARK.json`` (see README.md next to this
file), checks every simulated result against the committed fingerprints
in ``reference.json``, prints every metric by name with its unit, and
ends with one JSON line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Usage::

    python3 benchmarks/e2e/bench.py [--workload NAME] [--seed S]
        [--seconds T | --reps N] [--trace [0|1]] [--out DIR] [--smoke]
    python3 benchmarks/e2e/bench.py --write-reference [--smoke]

Without ``--trace`` the metrics are the end-to-end ones, each the median
of a fixed number of reps (``--reps``, or as many nominal reps as fill
``--seconds``) scaled to a reference host speed (see
:class:`HostProbe`), each rep in a fresh child process.  With
``--trace`` each workload runs once untraced and once traced, and the
metrics are the per-layer ones.  Without ``--workload`` all run,
interleaved round-robin so machine drift hits them alike.  Everything
the benchmark writes goes under ``--out`` (default ``.bench_build/e2e``
in the repository root); each invocation appends its records to
``runs.jsonl`` there, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from spans import layer_self_times, top_level_seconds  # noqa: E402
from workloads import REFERENCE_SEEDS, REP_S, WORKLOADS, sim_spec  # noqa: E402

#: The metrics, their units and which way is better come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The committed fingerprints of REFERENCE_SEEDS.
REFERENCE = HERE / "reference.json"
E2E = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Reps a time-budgeted run makes even when one rep fills the budget.
MIN_REPS = 3
DEFAULT_REPS = 5
#: A time-budgeted run starts no rep that its previous rep's time says
#: would end past this many times its budget, so a host far slower than
#: the nominal rep times cannot stretch it without end.  It fires only
#: when reps run more than this much slower than nominal.
DEADLINE_FACTOR = 1.25
#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 150

#: The host probe: CHASE_STEPS steps of a pure-Python pointer chase
#: around one random cycle through PROBE_SLOTS list slots (about 18 MiB
#: of objects, far past the caches), then ARITH_STEPS steps of integer
#: arithmetic.
PROBE_SLOTS = 1 << 19
CHASE_STEPS = 150_000
ARITH_STEPS = 200_000
#: The probe's time on the measuring host in a fast period (README.md,
#: Stability): times and rates are reported as at that host speed.
REF_PROBE_S = 0.05


class HostProbe:
    """Tracks how fast a shared host runs, around every rep.

    Other tenants of a shared host slow the same code by up to 1.6x,
    for seconds to minutes at a time, without stealing time from this
    guest: CPU time stays equal to wall time.  The probe is a fixed
    computation that imports nothing from ``repro``, so no change to the
    program moves it.  It runs before the first rep and after every rep;
    dividing a rep's times by the mean of the probes on either side of
    it over ``REF_PROBE_S``, and multiplying its rates, removes most of
    the swing (README.md, Stability).
    """

    def __init__(self):
        order = list(range(PROBE_SLOTS))
        random.Random(0).shuffle(order)
        self._next = [0] * PROBE_SLOTS
        for a, b in zip(order, order[1:] + order[:1]):
            self._next[a] = b

    def sample(self) -> float:
        """Seconds the probe took now."""
        nxt = self._next
        t = time.perf_counter()
        j = 0
        for _ in range(CHASE_STEPS):
            j = nxt[j]
        s = 0
        for i in range(ARITH_STEPS):
            s += i * i % 7
        return time.perf_counter() - t


def at_reference_speed(metric: str, value: float, slowdown: float) -> float:
    """*value* as measured on a host *slowdown* times slower than the
    reference, scaled to the reference: times shrink and rates grow."""
    unit = E2E[metric][0]
    if unit == "s":
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


class ChildFailed(RuntimeError):
    """A child process crashed, hung or printed no result."""


def child_env(out: Path) -> dict:
    """Children import ``repro`` from this checkout and nothing else,
    and keep the compiled kernel and temporary files inside the output
    directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_KERNEL_CACHE"] = str(out / "kernel-cache")
    env["TMPDIR"] = str(out / "tmp")
    return env


def run_child(spec: dict, env: dict) -> tuple:
    """Run ``child.py`` on *spec*; returns (its JSON result, wall seconds)."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def environment(kernel: dict) -> dict:
    def first_line(cmd: List[str]) -> Optional[str]:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=30,
                                  env=dict(os.environ,
                                           GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = proc.stdout.splitlines()
        return lines[0] if proc.returncode == 0 and lines else None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": first_line(["cc", "--version"]),
        "kernel": "loaded" if kernel["kernel"] else f"unavailable: {kernel['kernel_error']}",
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
    }


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh).get("profiles", {})


def check_reference(reference: dict, profile: str, workload: str, seed: int,
                    fingerprint: str) -> List[str]:
    """A mismatch against the committed fingerprint, if there is one."""
    want = reference.get(profile, {}).get(workload, {}).get(str(seed))
    if want is None or want == fingerprint:
        return []
    return [f"fingerprint {fingerprint[:12]} != reference {want[:12]}"]


# -- one rep ------------------------------------------------------------------


def sim_rep(ctx: dict, workload: str, rep: int, trace: bool = False,
            spec: Optional[dict] = None) -> dict:
    """One rep in a fresh child; never raises.

    *spec* overrides the workload's own inputs; such a rep has no
    reference fingerprint and gets only the child's own checks.
    """
    own = spec is None
    spec = dict(spec or sim_spec(ctx["profile"], workload, ctx["seed"]),
                rep=rep, trace=trace, tmp=str(ctx["tmp"]))
    try:
        out, wall = run_child(spec, ctx["env"])
    except ChildFailed as exc:
        return {"errors": [str(exc)], "attempted": 1, "failed": 1}
    errors = out["errors"]
    if own and ctx["reference"] is not None:
        errors += check_reference(ctx["reference"], ctx["profile"], workload,
                                  ctx["seed"], out["fingerprint"])
    out.update(
        attempted=1,
        failed=int(bool(errors)),
        wall_s=wall,
        metrics={"setup_s": out["setup_s"],
                 "pkts_per_s": out["delivered"] / out["run_s"],
                 "peak_rss_mb": out["peak_rss_mb"]},
    )
    return out


# -- a workload's runs ---------------------------------------------------------


def rep_count(name: str, seconds: Optional[float], reps: Optional[int]) -> int:
    """*reps*, or as many nominal reps of *name* as fill *seconds*."""
    if reps is not None:
        return reps
    return max(MIN_REPS, int(seconds / REP_S[name]))


def timed_runs(ctx: dict, names: List[str], seconds: Optional[float],
               reps: Optional[int]) -> Dict[str, dict]:
    """Untraced reps, round-robin over *names*, with a host probe before
    the first rep and after every rep.

    Each rep is scaled to the reference host speed by the mean of the
    probes on either side of it; each metric is the median of a
    workload's scaled reps.
    """
    counts = {n: rep_count(n, seconds, reps) for n in names}
    state: Dict[str, List[dict]] = {n: [] for n in names}
    probe = HostProbe()
    deadline = (time.perf_counter() + DEADLINE_FACTOR * seconds * len(names)
                if seconds is not None else float("inf"))
    last_s = dict.fromkeys(names, 0.0)
    before = probe.sample()
    for rep in range(max(counts.values())):
        for name in names:
            if rep < counts[name] and (
                    rep < MIN_REPS
                    or time.perf_counter() + last_s[name] < deadline):
                t = time.perf_counter()
                run = sim_rep(ctx, name, rep)
                after = probe.sample()
                last_s[name] = time.perf_counter() - t
                run["probe_s"] = (before + after) / 2
                state[name].append(run)
                before = after

    results = {}
    for name in names:
        runs = state[name]
        good = [r for r in runs if "metrics" in r]
        samples = {m: [g["metrics"][m] for g in good] for m in E2E}
        scaled = {m: [at_reference_speed(m, g["metrics"][m],
                                         g["probe_s"] / REF_PROBE_S)
                      for g in good] for m in E2E}
        results[name] = {
            "reps": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]],
            "samples": samples,
            "scaled": scaled,
            "probe_s": [g["probe_s"] for g in good],
            "metrics": {m: {"value": statistics.median(v), "unit": E2E[m][0]}
                        for m, v in scaled.items() if v},
        }
    return results


def traced_run(ctx: dict, name: str) -> dict:
    """One untraced and one traced rep; returns the per-layer metrics."""
    plain = sim_rep(ctx, name, 0)
    traced = sim_rep(ctx, name, 1, trace=True)
    runs, extras = [plain, traced], {}
    result = {
        "reps": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "spans": traced.get("spans", []),
        "metrics": {},
    }
    if "layers" in traced and "run_s" in plain:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            (traced["run_s"] - plain["run_s"]) / plain["run_s"])
        result["metrics"] = {m: {"value": layers[m], "unit": unit}
                             for m, unit in LAYER_UNITS.items()}
        extras["trace.coverage_frac"] = (
            top_level_seconds(traced["spans"]) / traced["wall_s"])
    result["extras"] = extras
    result["self_time_s"] = layer_self_times(result["spans"])
    return result


# -- reporting ----------------------------------------------------------------


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def report(name: str, res: dict, seed: int) -> None:
    print(f"[bench] {name} seed={seed} reps={res['reps']} "
          f"failed={res['failed']}/{res['attempted']}")
    if "probe_s" in res:
        print(f"    host probe: median {statistics.median(res['probe_s']):.4f} s "
              f"of {len(res['probe_s'])} (reference {REF_PROBE_S} s)")
    for m, entry in res["metrics"].items():
        samples = res.get("samples", {}).get(m, [])
        s = spread(res.get("scaled", {}).get(m, []))
        tail = (f"  (median of {len(samples)} at reference speed, rep IQR "
                f"{s:.1%}; measured {statistics.median(samples):.6g})"
                if s is not None else "")
        print(f"    {m:32s} {entry['value']:>16.6g} {entry['unit']}{tail}")
    for m, value in sorted(res.get("extras", {}).items()):
        print(f"    {m:32s} {value:>16.6g}  (extra; unit in the name)")
    for layer, secs in sorted(res.get("self_time_s", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"    self time {layer:32s} {secs:10.4f} s")
    for err in res["errors"][:10]:
        print(f"    ERROR {err}", file=sys.stderr)


def write_reference(ctx: dict) -> int:
    """Recompute the fingerprints of REFERENCE_SEEDS and rewrite REFERENCE.

    Each workload also runs on the object engine, the reference engine,
    and its fingerprint must match, so what is committed is the
    reference engine's result and a kernel that drifts from it fails.
    """
    entries: Dict[str, Dict[str, str]] = {}
    for seed in REFERENCE_SEEDS:
        ctx["seed"] = seed
        for name in WORKLOADS:
            res = sim_rep(ctx, name, 0)
            ref = sim_rep(ctx, name, 0, spec=dict(
                sim_spec(ctx["profile"], name, seed), backend="object"))
            errors = res["errors"] + ref["errors"]
            if not errors and res["fingerprint"] != ref["fingerprint"]:
                errors = ["fingerprint differs from the object engine's"]
            if errors:
                print(f"[bench] {name} seed={seed}: {errors}", file=sys.stderr)
                return 1
            entries.setdefault(name, {})[str(seed)] = res["fingerprint"]
    data = {"profiles": {}}
    if REFERENCE.exists():
        data = json.loads(REFERENCE.read_text())
    data["profiles"][ctx["profile"]] = entries
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {ctx['profile']} fingerprints for seeds "
          f"{list(REFERENCE_SEEDS)} to {REFERENCE}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload (default: all, round-robin)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="time budget per workload: as many reps as fit at "
                        "the nominal rep time (at least 3)")
    p.add_argument("--reps", type=int, default=None,
                   help=f"fixed rep count (default {DEFAULT_REPS} when "
                        f"--seconds is not given)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics instead")
    p.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "e2e")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes for the harness tests")
    p.add_argument("--write-reference", action="store_true",
                   help=f"recompute the fingerprints for seeds "
                        f"{list(REFERENCE_SEEDS)} and rewrite reference.json")
    args = p.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        p.error("--reps must be at least 1")
    if args.reps is None and args.seconds is None:
        args.reps = DEFAULT_REPS
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out.resolve()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = child_env(out)
    # Build (or load) the kernel before anything is timed, and refuse to
    # measure a package other than this checkout's.
    try:
        kernel, _ = run_child({"mode": "prewarm"}, env)
    except ChildFailed as exc:
        print(f"[bench] cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(kernel["repro_file"]).resolve().is_relative_to(ROOT / "src"):
        print(f"[bench] imported repro from {kernel['repro_file']}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    if not kernel["kernel"]:
        print(f"[bench] compiled kernel unavailable ({kernel['kernel_error']}); "
              f"every kernel rep will count as failed", file=sys.stderr)
    ctx = {"profile": "smoke" if args.smoke else "full", "seed": args.seed,
           "env": env, "tmp": Path(tempfile.mkdtemp(dir=tmp)),
           "reference": None}
    try:
        if args.write_reference:
            return write_reference(ctx)
        ctx["reference"] = load_reference()
        names = [args.workload] if args.workload else list(WORKLOADS)
        env_info = environment(kernel)
        print("[bench] environment " + json.dumps(env_info, sort_keys=True))
        if args.trace:
            results = {n: traced_run(ctx, n) for n in names}
        else:
            results = timed_runs(ctx, names, args.seconds, args.reps)
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)

    for name, res in results.items():
        report(name, res, args.seed)
    with open(out / "runs.jsonl", "a") as fh:
        for name, res in results.items():
            record = {k: v for k, v in res.items() if k != "spans"}
            fh.write(json.dumps(dict(record, workload=name, seed=args.seed,
                                     trace=args.trace, profile=ctx["profile"],
                                     environment=env_info)) + "\n")
    if args.trace:
        (out / "trace.json").write_text(json.dumps(
            {name: {"spans": res["spans"], "self_time_s": res["self_time_s"]}
             for name, res in results.items()}))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items()
                   for m, v in r["metrics"].items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
