"""Simulator-throughput benchmark: the perf trajectory of the hot path.

Measures packets/sec and events/sec for MIN / INR / UGAL on the small
Slim Fly and MLFM instances on the object engine, plus a routing-layer
microbenchmark that times ``UGALRouting.route`` itself against live
congestion state on a warmed network, undiluted by event-queue costs.

A second axis compares the two simulator engines (``SimConfig.backend =
"object" | "kernel"``) on identical work: per-engine wall-clock and
throughput plus ``kernel_speedup`` (the wall-clock ratio over the
object engine; event *counts* differ by design, the kernel elides
bookkeeping events, so events/sec is per-engine color, not a
comparison).  The kernel rows appear only where the extension builds;
a third bench runs both engines at the UGAL saturation point on the
490-node Slim Fly (MMS q=7), the operating regime the kernel exists
for.

Results go to ``benchmarks/out/perf_summary.json`` so future PRs have a
perf trajectory to regress against.  Wall-clock is taken as the best of
``REPS`` repetitions, interleaved across rows or engines: the minimum
is robust against CPU contention on shared runners, and interleaving
spreads each row's repetitions over the run.

Set ``REPRO_PERF_BASELINE=<path to committed baseline JSON>`` (the CI
perf-smoke job points it at ``benchmarks/perf_baseline.json``) to fail
the run when a gated throughput drops below 70% of the baseline, or
when the run has no counterpart for a gated baseline row.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import random
import time

from repro.experiments.configs import configs_for_scale
from repro.experiments.specs import build_routing
from repro.sim import Network
from repro.sim.config import SimConfig
from repro.traffic import UniformRandom

LOAD = 0.4
WARMUP_NS = 500.0
MEASURE_NS = 2_000.0
SEED = 0
REPS = 3
MICRO_ROUTES = 20_000
REGRESSION_FLOOR = 0.7  # fail below 70% of the committed baseline

#: Wall-clock floor for the kernel relative to the object engine on the
#: tiny-scale cases, where set-up rather than the event loop dominates.
#: A *regression* guard at the noise floor of shared runners: the
#: kernel must never fall meaningfully behind the reference engine.
PARITY_FLOOR = 0.8

#: Wall-clock floor for the compiled kernel relative to the object
#: engine on the saturation bench (the acceptance gate of the kernel
#: PR).  Measured reality (gcc -O2, CPython 3.11, 2026-08): ~4.3x on
#: UGAL/Slim Fly with the C route-selection and delivery-accounting
#: fast paths live (~2.4x before them, when every make_packet/deliver
#: escaped to Python per packet).  The remaining gap to the 5-10x
#: aspiration is Amdahl-bound in the cold-path escapes (scheduled
#: CALLs, cache-row refills under faults) -- see docs/PERFORMANCE.md
#: for the measured escape split.  Only enforced when
#: ``REPRO_PERF_BASELINE`` is set (the CI perf-smoke job): shared
#: runners without that gate still record the number but don't fail.
KERNEL_SPEEDUP_FLOOR = 3.5


def _configs(scale: str):
    by_key = {cfg.key: cfg for cfg in configs_for_scale(scale)}
    return {"sf": by_key["sf-floor"], "mlfm": by_key["mlfm"]}


def _sim_once(cfg, kind: str, backend: str):
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec(kind), topo)
    net = Network(topo, routing, SimConfig(backend=backend))
    t0 = time.perf_counter()
    stats = net.run_synthetic(
        UniformRandom(topo.num_nodes),
        load=LOAD,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        seed=SEED,
    )
    wall = time.perf_counter() - t0
    return wall, stats.ejected_packets, net.engine.events_executed


def _bench_end_to_end(configs):
    """Best-of-REPS on the object engine for every (config, routing)
    pair.  The reps go round-robin over the pairs, so a burst of host
    contention cannot land on all the reps of one pair."""
    rows = [(topo_key, kind) for topo_key in configs for kind in ("min", "inr", "ugal")]
    walls = {row: [] for row in rows}
    counts = {}
    for _ in range(REPS):
        for topo_key, kind in rows:
            wall, pkts, evs = _sim_once(configs[topo_key], kind, "object")
            walls[topo_key, kind].append(wall)
            first = counts.setdefault((topo_key, kind), (pkts, evs))
            assert (pkts, evs) == first, (
                f"{topo_key}/{kind}: seeded reps diverged "
                f"({pkts}, {evs}) != {first}"
            )
    out = {topo_key: {} for topo_key in configs}
    for (topo_key, kind), (packets, events) in counts.items():
        wall = min(walls[topo_key, kind])
        out[topo_key][kind] = {
            "wall_s": round(wall, 4),
            "packets_per_sec": round(packets / wall, 1),
            "events_per_sec": round(events / wall, 1),
            "packets": packets,
            "events": events,
        }
    return out


def _backend_axis() -> tuple:
    """The backends this machine can run: kernel only where it builds."""
    from repro.sim.vec.kernel import load_kernel

    backends = ["object"]
    if load_kernel() is not None:
        backends.append("kernel")
    return tuple(backends)


def _bench_backends(cfg, kind: str, backends: tuple):
    """Interleaved best-of-REPS across the simulator backends.

    The backends execute different *event counts* for the same physics
    (the kernel elides link-free/credit-return events), so
    ``events_per_sec`` is reported per backend but is not comparable
    across them; ``kernel_speedup`` is the wall-clock ratio over the
    object engine on identical delivered work.
    """
    walls = {backend: [] for backend in backends}
    packets = None
    events = {}
    for _ in range(REPS):
        for backend in backends:
            wall, pkts, evs = _sim_once(cfg, kind, backend)
            walls[backend].append(wall)
            events[backend] = evs
            # Conformance contract: identical physics on every backend.
            if packets is None:
                packets = pkts
            assert pkts == packets, (
                f"{cfg.key}/{kind}: backends diverged on delivered "
                f"packets ({backend}: {pkts} != {packets})"
            )
    out = {"packets": packets}
    for backend in backends:
        wall = min(walls[backend])
        out[backend] = {
            "wall_s": round(wall, 4),
            "packets_per_sec": round(packets / wall, 1),
            "events": events[backend],
            "events_per_sec": round(events[backend] / wall, 1),
        }
    for backend in backends[1:]:
        out[f"{backend}_speedup"] = round(
            out["object"]["wall_s"] / out[backend]["wall_s"], 3
        )
    return out


#: The saturation bench instance: MMS q=7 with floor concentration is
#: 98 routers x 5 endpoints = 490 nodes -- the smallest Slim Fly where
#: per-event Python overhead, not cache effects, dominates wall-clock.
SAT_Q = 7
SAT_LOAD = 0.9  # past the UGAL saturation knee: maximal event pressure
SAT_WARMUP_NS = 500.0
SAT_MEASURE_NS = 1_500.0
SAT_REPS = 2  # each rep is seconds of wall-clock at this scale


def _bench_saturation(backends: tuple):
    """All backends at the UGAL saturation point on the 490-node SF.

    This is the regime the compiled kernel exists for: every queue
    deep, every VC arbitration contested, wake-up elision earning its
    keep.  Reports per-backend events/sec (per-backend color, see
    ``_bench_backends``) and wall-clock speedups over the object engine.
    """
    from repro.routing import UGALRouting
    from repro.topology import SlimFly

    walls = {backend: [] for backend in backends}
    packets = nodes = None
    events = {}
    for _ in range(SAT_REPS):
        for backend in backends:
            topo = SlimFly(SAT_Q)
            nodes = topo.num_nodes
            net = Network(topo, UGALRouting(topo, seed=SEED),
                          SimConfig(backend=backend))
            t0 = time.perf_counter()
            stats = net.run_synthetic(
                UniformRandom(topo.num_nodes),
                load=SAT_LOAD,
                warmup_ns=SAT_WARMUP_NS,
                measure_ns=SAT_MEASURE_NS,
                seed=SEED,
            )
            walls[backend].append(time.perf_counter() - t0)
            events[backend] = net.engine.events_executed
            if packets is None:
                packets = stats.ejected_packets
            assert stats.ejected_packets == packets, (
                f"saturation bench: backends diverged "
                f"({backend}: {stats.ejected_packets} != {packets})"
            )
    out = {
        "case": f"sf:q={SAT_Q}/ugal",
        "nodes": nodes,
        "load": SAT_LOAD,
        "packets": packets,
    }
    for backend in backends:
        wall = min(walls[backend])
        out[backend] = {
            "wall_s": round(wall, 4),
            "packets_per_sec": round(packets / wall, 1),
            "events": events[backend],
            "events_per_sec": round(events[backend] / wall, 1),
        }
    for backend in backends[1:]:
        out[f"{backend}_speedup"] = round(
            out["object"]["wall_s"] / out[backend]["wall_s"], 3
        )
    return out


def _bench_checker_overhead(cfg, kind: str = "ugal"):
    """Wall-clock cost of the runtime invariant checker (``--check``) on
    one end-to-end simulation, interleaved best-of-REPS.  Deliberately
    NOT part of the ``REPRO_PERF_BASELINE`` regression gate
    (``_check_baseline`` only reads ``end_to_end`` and the routing
    microbench): the checker is an opt-in debugging tool, so its cost is
    tracked and bounded but never fails a perf-smoke run."""
    topo = cfg.topology()
    walls = {False: [], True: []}
    packets = None
    for _ in range(REPS):
        for check in (False, True):
            routing = build_routing(*cfg.routing_spec(kind), topo)
            net = Network(topo, routing, SimConfig(check=check))
            t0 = time.perf_counter()
            stats = net.run_synthetic(
                UniformRandom(topo.num_nodes),
                load=LOAD,
                warmup_ns=WARMUP_NS,
                measure_ns=MEASURE_NS,
                seed=SEED,
            )
            walls[check].append(time.perf_counter() - t0)
            # The checker must not change the physics.
            if packets is None:
                packets = stats.ejected_packets
            assert stats.ejected_packets == packets, (
                f"checker changed delivery count: {stats.ejected_packets} "
                f"!= {packets}"
            )
    plain, checked = min(walls[False]), min(walls[True])
    return {
        "case": f"{cfg.key}/{kind}",
        "packets": packets,
        "unchecked_wall_s": round(plain, 4),
        "checked_wall_s": round(checked, 4),
        "overhead": round(checked / plain, 3),
    }


def _bench_routing_micro(cfg):
    """Routing-layer microbenchmark: UGAL route() calls per second
    against live congestion."""
    topo = cfg.topology()
    # Warm a network so congestion lookups see realistic occupancies.
    net = Network(topo, build_routing(*cfg.routing_spec("ugal"), topo), SimConfig())
    net.run_synthetic(
        UniformRandom(topo.num_nodes),
        load=0.6,
        warmup_ns=500.0,
        measure_ns=1_000.0,
        seed=7,
    )
    pair_rng = random.Random(123)
    n = topo.num_routers
    pairs = []
    while len(pairs) < MICRO_ROUTES:
        s, d = pair_rng.randrange(n), pair_rng.randrange(n)
        if s != d:
            pairs.append((s, d))

    best = float("inf")
    kinds = None
    for _ in range(REPS):
        route = build_routing(*cfg.routing_spec("ugal"), topo).route
        t0 = time.perf_counter()
        indirect = 0
        for s, d in pairs:
            indirect += route(s, d, net).kind == "indirect"
        best = min(best, time.perf_counter() - t0)
        if kinds is None:
            kinds = indirect
        assert indirect == kinds, "route decisions diverged across reps"
    return {
        "routes": len(pairs),
        "indirect_fraction": round(kinds / len(pairs), 4),
        "routes_per_sec": round(len(pairs) / best, 1),
    }


def _bench_fault_overhead(cfg):
    """No-fault cost of the fault-aware candidate-set machinery.

    Fault awareness added exactly one branch to every row fill
    (``if self._failed:``); all other bookkeeping was deliberately
    moved to fault time (``fail_link`` scans the filled rows).  This
    microbenchmark times the row-lookup idiom the routing algorithms
    use -- row hit or lazy ``minimal_fill`` -- over a fresh cache,
    against a replica of the pre-fault fill path (ensure row, compile
    candidates, store) with no fault branch at all.  Fault-free
    simulations must pay (almost) nothing for the machinery; the
    acceptance gate is <= 5% overhead.
    """
    from repro.routing.cache import RouteCache

    topo = cfg.topology()
    vc_policy = build_routing(*cfg.routing_spec("ugal"), topo).cache.vc_policy
    pair_rng = random.Random(321)
    n = topo.num_routers
    pairs = []
    while len(pairs) < MICRO_ROUTES:
        s, d = pair_rng.randrange(n), pair_rng.randrange(n)
        if s != d:
            pairs.append((s, d))

    def plain_fill(cache, src, dst):
        # The fill path as it was before fault awareness existed.
        row = cache.ensure_minimal_row(src)
        cands = cache.minimal_candidates(src, dst)
        row[dst] = cands
        return cands

    def timed_region(fault_aware: bool) -> float:
        # Several fresh-cache passes per timed region: the delta under
        # test sits on the fill path, and single-pass regions (~15 ms)
        # are inside shared-runner noise.  CPU time rather than wall
        # clock (a ~1% ratio gate cannot absorb scheduler preemption on
        # shared runners), with the GC parked so collection pauses from
        # the fresh caches don't land on one side of the A/B.
        gc.collect()
        gc.disable()
        t0 = time.process_time()
        for _ in range(3):
            cache = RouteCache(topo, vc_policy)
            rows = cache.minimal_rows
            if fault_aware:
                fill = cache.minimal_fill
            else:
                fill = lambda s, d: plain_fill(cache, s, d)  # noqa: E731
            for s, d in pairs:
                row = rows[s]
                if row is None or row[d] is None:
                    fill(s, d)
        elapsed = time.process_time() - t0
        gc.enable()
        return elapsed

    # Interleave the two modes rep-by-rep so machine drift (CPU
    # contention, thermal throttling) hits both sides alike, then
    # compare best-of-reps against best-of-reps.
    plain = aware = float("inf")
    for _ in range(REPS + 4):
        plain = min(plain, timed_region(False))
        aware = min(aware, timed_region(True))
    return {
        "lookups": len(pairs),
        "plain_cpu_s": round(plain, 4),
        "fault_aware_cpu_s": round(aware, 4),
        "overhead": round(aware / plain, 3),
    }


def _row(tree, *keys):
    """``tree[k0][k1]...``, or None where a level is missing."""
    for key in keys:
        if not isinstance(tree, dict):
            return None
        tree = tree.get(key)
    return tree


def _check_baseline(summary) -> list:
    """Compare throughputs against the committed baseline.

    Every gated baseline row needs its counterpart in *summary*: a row
    either side lacks is a failure, so reshaping the summary cannot
    switch the gate off.  Kernel rows are exempt when the kernel did
    not load (the dedicated fallback CI job covers that leg).
    """
    path = os.environ.get("REPRO_PERF_BASELINE")
    if not path:
        return []
    with open(path) as fh:
        baseline = json.load(fh)
    failures = []

    def gate(label: str, unit: str, keys: tuple) -> None:
        ref, got = _row(baseline, *keys), _row(summary, *keys)
        if ref is None or got is None:
            side = "baseline" if ref is None else "run"
            failures.append(f"{label}: the {side} has no {'.'.join(keys)}")
        elif got < REGRESSION_FLOOR * ref:
            failures.append(
                f"{label}: {got:.0f} {unit} < {REGRESSION_FLOOR:.0%} of "
                f"baseline {ref:.0f}"
            )

    for topo_key, per_routing in baseline.get("end_to_end", {}).items():
        for kind in per_routing:
            gate(f"{topo_key}/{kind}", "pkts/s",
                 ("end_to_end", topo_key, kind, "packets_per_sec"))
    gate("routing microbench", "routes/s",
         ("ugal_sf_routing_microbench", "routes_per_sec"))
    if "kernel" not in summary.get("backend_axis", ()):
        return failures
    for topo_key, per_routing in baseline.get("backends", {}).items():
        for kind in per_routing:
            gate(f"backends {topo_key}/{kind}: kernel", "pkts/s",
                 ("backends", topo_key, kind, "kernel", "packets_per_sec"))
    # The kernel acceptance gate: on the saturation bench the compiled
    # kernel must hold >= KERNEL_SPEEDUP_FLOOR over the object engine.
    if "kernel_saturation" in baseline:
        speedup = _row(summary, "kernel_saturation", "kernel_speedup")
        if speedup is None or speedup < KERNEL_SPEEDUP_FLOOR:
            failures.append(
                f"kernel saturation bench: speedup {speedup} "
                f"< floor {KERNEL_SPEEDUP_FLOOR} over object"
            )
    return failures


def test_bench_perf(scale, report_dir):
    configs = _configs(scale)
    summary = {
        "scale": scale,
        "load": LOAD,
        "warmup_ns": WARMUP_NS,
        "measure_ns": MEASURE_NS,
        "reps": REPS,
        "end_to_end": _bench_end_to_end(configs),
    }
    backends = _backend_axis()
    summary["backend_axis"] = list(backends)
    summary["backends"] = {
        topo_key: {
            kind: _bench_backends(cfg, kind, backends)
            for kind in ("min", "ugal")
        }
        for topo_key, cfg in configs.items()
    }
    summary["kernel_saturation"] = _bench_saturation(backends)
    summary["ugal_sf_routing_microbench"] = _bench_routing_micro(configs["sf"])
    summary["checker_overhead"] = _bench_checker_overhead(configs["sf"])
    summary["fault_overhead"] = _bench_fault_overhead(configs["sf"])

    (report_dir / "perf_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    # The kernel must stay at least at parity with the object engine
    # (floor sits below 1.0 only to absorb shared-runner noise).
    for topo_key, per_routing in summary["backends"].items():
        for kind, entry in per_routing.items():
            if "kernel_speedup" in entry:
                assert entry["kernel_speedup"] > PARITY_FLOOR, (
                    topo_key, kind, entry
                )

    # The invariant checker advertises "about 2x"; gate it at < 3x so a
    # hook that quietly lands on the hot path is caught here.
    assert summary["checker_overhead"]["overhead"] < 3.0, summary["checker_overhead"]

    # Fault-free runs must not pay for fault-awareness: the candidate-
    # set bookkeeping is gated at <= 5% on the row fill/lookup path.
    assert summary["fault_overhead"]["overhead"] <= 1.05, summary["fault_overhead"]

    failures = _check_baseline(summary)
    assert not failures, "; ".join(failures)


BASELINE = os.path.join(os.path.dirname(__file__), "perf_baseline.json")


def test_baseline_gate_fails_rows_it_cannot_find(monkeypatch):
    """A summary missing gated rows fails the gate instead of passing."""
    monkeypatch.setenv("REPRO_PERF_BASELINE", BASELINE)
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    # The committed numbers pass against themselves.
    assert _check_baseline(baseline) == []

    # A 100x slowdown filed under the pre-change row shape (throughput
    # nested under "cached"): every end_to_end and microbench row fails.
    reshaped = copy.deepcopy(baseline)
    for per_routing in reshaped["end_to_end"].values():
        for kind, entry in per_routing.items():
            per_routing[kind] = {
                "cached": {"packets_per_sec": entry["packets_per_sec"] / 100}
            }
    micro = reshaped["ugal_sf_routing_microbench"]
    micro["cached_routes_per_sec"] = micro.pop("routes_per_sec") / 100
    failures = _check_baseline(reshaped)
    rows = sum(len(per) for per in baseline["end_to_end"].values()) + 1
    assert len(failures) == rows, failures
    assert all("the run has no" in f for f in failures), failures

    # Kernel rows are gated only where the kernel loaded.
    no_kernel = copy.deepcopy(baseline)
    for per_routing in no_kernel["backends"].values():
        for entry in per_routing.values():
            del entry["kernel"]
    del no_kernel["kernel_saturation"]["kernel_speedup"]
    assert len(_check_baseline(no_kernel)) == (
        sum(len(per) for per in baseline["backends"].values()) + 1
    )
    no_kernel["backend_axis"] = ["object"]
    assert _check_baseline(no_kernel) == []
