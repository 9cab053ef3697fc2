"""Golden end-to-end conformance fingerprints.

One fingerprint per topology x routing combination of the tiny-scale
evaluation configurations (:func:`repro.experiments.configs
.configs_for_scale`): the full :class:`~repro.sim.stats.WindowStats` of
a short uniform-traffic run plus a SHA-256 digest over the ordered
delivered-packet stream (pid, endpoints, route kind, ejection time).
The goldens are committed at ``tests/golden/conformance.json``; the
conformance test suite (``tests/test_golden_conformance.py``) recomputes
them serially, through a process pool, on both engines and with the
invariant checker enabled -- so any future kernel, route-cache or
checker change that alters *behaviour*, not just crashes, fails loudly
against a reviewable diff.

The fingerprint deliberately excludes event counts: the invariant
checker's watchdog schedules extra (physics-free) events, and the whole
point is that checked and unchecked runs must agree on everything a
paper figure could consume.

A second set pins the closed loop (``tests/golden/closed_loop_conformance
.json``): collective workloads through
:class:`~repro.workload.driver.WorkloadDriver` and finite exchanges
through ``run_exchange`` on the tiny Slim Fly with UGAL, each
fingerprinted by its result dict (minus the event count and host wall
time) and a digest over the ordered delivery stream, message ids
included.

Regenerate after an *intended* behaviour change with::

    python -m repro.experiments.conformance --write

and commit the resulting JSON together with the change that explains it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from typing import Callable, Dict, List, Tuple

from repro.experiments.configs import configs_for_scale
from repro.experiments.specs import build_routing
from repro.sim import Network, SimConfig
from repro.traffic import AllToAll, NearestNeighbor3D, UniformRandom
from repro.workload import Workload, build_workload

__all__ = [
    "GOLDEN_PATH",
    "FAULT_GOLDEN_PATH",
    "CASE_KEYS",
    "FAULT_CASE_KEY",
    "run_case",
    "run_fault_case",
    "fault_specs",
    "compute_fingerprints",
    "load_golden",
    "load_fault_golden",
    "diff_fingerprints",
    "diff_fault_fingerprint",
    "write_fault_golden",
    "CLOSED_LOOP_GOLDEN_PATH",
    "CLOSED_LOOP_CASE_KEYS",
    "run_closed_loop_case",
    "load_closed_loop_golden",
    "diff_closed_loop",
    "write_closed_loop_golden",
]

#: Repo-relative location of the committed goldens.
GOLDEN_PATH = "tests/golden/conformance.json"

#: Committed golden for the deterministic fault-schedule run
#: (repro.resilience): one case, verified across both backends and the
#: checked/pool paths by tests/test_golden_conformance.py.
FAULT_GOLDEN_PATH = "tests/golden/fault_conformance.json"

#: Run parameters -- small enough that the full 12-case suite stays in
#: test-suite budget, long enough that every pipeline stage (credit
#: stalls, VC round-robin, indirect routes) is exercised.
SCALE = "tiny"
LOAD = 0.3
WARMUP_NS = 300.0
MEASURE_NS = 1_200.0
ROUTING_SEED = 0
TRAFFIC_SEED = 1_000  # the runner's seed contract: traffic = seed + 1000

_ROUTING_KINDS = ("min", "inr", "ugal")

#: Every topology x routing case, in deterministic order.
CASE_KEYS: List[str] = [
    f"{cfg.key}/{kind}"
    for cfg in configs_for_scale(SCALE)
    for kind in _ROUTING_KINDS
]


def _build(case_key: str, check: bool, backend: str = "object") -> Network:
    topo_key, _, kind = case_key.partition("/")
    by_key = {cfg.key: cfg for cfg in configs_for_scale(SCALE)}
    if topo_key not in by_key or kind not in _ROUTING_KINDS:
        raise ValueError(f"unknown conformance case {case_key!r}")
    cfg = by_key[topo_key]
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec(kind), topo, seed=ROUTING_SEED)
    return Network(topo, routing, SimConfig(check=check, backend=backend))


def _delivery_recorder(digest, msg_id: bool = False):
    """A delivery listener feeding *digest* one line per packet, in
    delivery order (plus the message id with *msg_id*)."""

    def record(pkt) -> None:
        tail = f":{pkt.msg_id!r}" if msg_id else ""
        digest.update(
            f"{pkt.pid}:{pkt.src_node}:{pkt.dst_node}:{pkt.kind}:"
            f"{pkt.eject_time!r}{tail};".encode()
        )

    return record


def run_case(
    case_key: str,
    check: bool = False,
    backend: str = "object",
    listener: bool = True,
) -> Dict:
    """Compute one case's fingerprint (picklable: runs in pool workers).

    Returns ``{"stats": {... WindowStats fields ...}, "digest": hex,
    "delivered": total}``.  Floats pass through ``json`` unchanged
    (round-trip exact), so fingerprints compare with ``==``.

    ``listener=False`` skips the delivery-stream digest (returned as
    ``None``; :func:`diff_fingerprints` then compares stats only).  On
    the kernel backend that is the configuration where the C
    delivery-accounting fast path is live, so the no-listener legs gate
    its WindowStats bit-exactness against the same goldens.
    """
    net = _build(case_key, check, backend)
    digest = hashlib.sha256()
    if listener:
        net.add_delivery_listener(_delivery_recorder(digest))
    stats = net.run_synthetic(
        UniformRandom(net.topology.num_nodes),
        load=LOAD,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        seed=TRAFFIC_SEED,
        drain=True,
    )
    return {
        "stats": {name: getattr(stats, name) for name in stats.__slots__},
        "digest": digest.hexdigest() if listener else None,
        "delivered": net.stats.ejected_total,
    }


#: The fault-conformance case: adaptive routing on the SF floor config,
#: where candidate-set invalidation, minimal fallback and rerouting all
#: get exercised.
FAULT_CASE_KEY = "sf-floor/ugal"

#: Fault times sit inside the measurement window (300..1500 ns) so the
#: degraded interval is visible in the fingerprinted stats.
_FAULT_FAIL_NS = 600.0
_FAULT_RECOVER_NS = 1_100.0
_FAULT_DRIP_NS = 750.0


def fault_specs(topology) -> tuple:
    """The deterministic fault schedule of the fault-conformance case.

    Built from the topology so the failed link always exists: fail the
    lowest-numbered link of router 0 mid-measurement, recover it later,
    and drip two more connectivity-preserving failures in between.
    """
    v = min(topology.neighbors(0))
    return (
        f"fail@{_FAULT_FAIL_NS:g}:0-{v}",
        f"recover@{_FAULT_RECOVER_NS:g}:0-{v}",
        f"drip@{_FAULT_DRIP_NS:g}:n=2,every=100,seed=7",
    )


def run_fault_case(
    check: bool = False,
    backend: str = "object",
    policy: str = "reroute",
) -> Dict:
    """Fingerprint of the deterministic fault-schedule run.

    Same fingerprint shape as :func:`run_case` plus the fault manager's
    summary, so reroute/drop counts are golden-pinned too.  Picklable
    (runs in pool workers).
    """
    topo_key, _, kind = FAULT_CASE_KEY.partition("/")
    cfg = {c.key: c for c in configs_for_scale(SCALE)}[topo_key]
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec(kind), topo, seed=ROUTING_SEED)
    net = Network(
        topo,
        routing,
        SimConfig(
            check=check,
            backend=backend,
            faults=fault_specs(topo),
            fault_policy=policy,
        ),
    )
    digest = hashlib.sha256()
    net.add_delivery_listener(_delivery_recorder(digest))
    stats = net.run_synthetic(
        UniformRandom(net.topology.num_nodes),
        load=LOAD,
        warmup_ns=WARMUP_NS,
        measure_ns=MEASURE_NS,
        seed=TRAFFIC_SEED,
        drain=True,
    )
    return {
        "stats": {name: getattr(stats, name) for name in stats.__slots__},
        "digest": digest.hexdigest(),
        "delivered": net.stats.ejected_total,
        "faults": net.fault_manager.summary(),
    }


# -- closed-loop goldens ----------------------------------------------------

#: Committed goldens of the closed-loop cases.
CLOSED_LOOP_GOLDEN_PATH = "tests/golden/closed_loop_conformance.json"

#: The closed-loop cases run on this tiny configuration's UGAL.
CLOSED_LOOP_CONFIG = "sf-floor"

#: Result fields that are not behaviour: the event count (the checker's
#: watchdog adds events, and a driver's root release is an event) and
#: the driver's host wall time.
_HOST_FIELDS = ("events", "driver_wall_s")


def _odd_sizes_workload(num_nodes: int) -> Workload:
    """Message sizes off the packet grid, gated by local messages.

    Twenty ranks send one round of 1-1000 B messages; a zero-byte
    message, which completes through a scheduled callback instead of
    the network, gates a second round on the whole first one, and a
    self-send (also local) sits among the second round's sends.
    """
    ranks = min(20, num_nodes)
    sizes = (1, 255, 257, 700, 1000)
    w = Workload("odd-sizes")
    first = [
        w.add(i, (i + 1) % ranks, sizes[i % 5], phase="round0")
        for i in range(ranks)
    ]
    gate = w.add(0, 0, 0, deps=first, phase="gate")
    for i in range(ranks):
        w.add(i, (i + 7) % ranks, sizes[(i + 2) % 5], deps=[gate], phase="round1")
    w.add(3, 3, 512, deps=[gate], phase="round1")
    return w


class _FirstRanks:
    """An in-order *exchange*'s messages from the nodes below its
    ``num_nodes``; every other node sends nothing."""

    def __init__(self, exchange):
        self.exchange = exchange

    def node_messages(self, node: int):
        if node >= self.exchange.num_nodes:
            return ()
        return self.exchange.node_messages(node)


_DRIP = ("drip@300:n=3,every=200,seed=3",)

#: Case key -> (fault specs, run(net) -> result dict).  Sizes are chosen
#: so most messages end in a partial packet.
_CLOSED_LOOP: Dict[str, Tuple[Tuple[str, ...], Callable]] = {
    "ring-allreduce": ((), lambda net: net.run_workload(build_workload(
        "ring-allreduce", net.topology.num_nodes, 24 * 700, ranks=24))),
    "halo3d-t2": ((), lambda net: net.run_workload(build_workload(
        "halo3d", net.topology.num_nodes, 1_000, iterations=2))),
    "phased-a2a-barrier": ((), lambda net: net.run_workload(build_workload(
        "phased-a2a", net.topology.num_nodes, 300, ranks=16, barrier=True))),
    "odd-sizes": ((), lambda net: net.run_workload(
        _odd_sizes_workload(net.topology.num_nodes))),
    "exchange-a2a": ((), lambda net: net.run_exchange(
        _FirstRanks(AllToAll(48, message_bytes=300, seed=0)),
        track_messages=True)),
    "exchange-nn": ((), lambda net: net.run_exchange(
        NearestNeighbor3D(net.topology.num_nodes, message_bytes=1_000),
        track_messages=True)),
    "halo3d-t2-faults": (_DRIP, lambda net: net.run_workload(build_workload(
        "halo3d", net.topology.num_nodes, 1_000, iterations=2))),
}

#: Every closed-loop case, in deterministic order.
CLOSED_LOOP_CASE_KEYS: List[str] = list(_CLOSED_LOOP)


def run_closed_loop_case(
    case_key: str,
    check: bool = False,
    backend: str = "object",
    listener: bool = True,
) -> Dict:
    """One closed-loop case's fingerprint: ``{"result": ..., "digest":
    hex}``.  ``listener=False`` attaches no delivery recorder (digest
    ``None``), which on the kernel keeps the C delivery path and the C
    message countdown live."""
    if case_key not in _CLOSED_LOOP:
        raise ValueError(f"unknown closed-loop case {case_key!r}")
    faults, run = _CLOSED_LOOP[case_key]
    cfg = {c.key: c for c in configs_for_scale(SCALE)}[CLOSED_LOOP_CONFIG]
    topo = cfg.topology()
    routing = build_routing(*cfg.routing_spec("ugal"), topo, seed=ROUTING_SEED)
    net = Network(topo, routing, SimConfig(
        check=check, backend=backend, faults=faults, fault_policy="reroute"))
    digest = hashlib.sha256()
    if listener:
        net.add_delivery_listener(_delivery_recorder(digest, msg_id=True))
    result = run(net)
    return {
        "result": {k: v for k, v in result.items() if k not in _HOST_FIELDS},
        "digest": digest.hexdigest() if listener else None,
    }


def load_closed_loop_golden(path: str = CLOSED_LOOP_GOLDEN_PATH) -> Dict[str, Dict]:
    """The committed closed-loop fingerprints, keyed by case."""
    with open(path) as fh:
        return json.load(fh)["cases"]


def diff_closed_loop(golden: Dict, computed: Dict) -> List[str]:
    """Mismatches between two closed-loop fingerprint maps."""
    problems = []
    for key in sorted(set(golden) | set(computed)):
        if key not in computed:
            problems.append(f"{key}: missing from computed set")
            continue
        if key not in golden:
            problems.append(f"{key}: not in golden file (regenerate goldens)")
            continue
        want, got = golden[key], computed[key]
        if got["digest"] is not None and want["digest"] != got["digest"]:
            problems.append(
                f"{key}: delivery-stream digest changed "
                f"({want['digest'][:12]} -> {got['digest'][:12]})"
            )
        for field in sorted(set(want["result"]) | set(got["result"])):
            ref, val = want["result"].get(field), got["result"].get(field)
            if val != ref:
                problems.append(f"{key}: result.{field} changed {ref!r} -> {val!r}")
    return problems


def write_closed_loop_golden(path: str = CLOSED_LOOP_GOLDEN_PATH) -> Dict[str, Dict]:
    """Recompute the closed-loop fingerprints (object reference) and
    write them."""
    cases = {key: run_closed_loop_case(key) for key in CLOSED_LOOP_CASE_KEYS}
    payload = {
        "meta": {
            "config": CLOSED_LOOP_CONFIG,
            "scale": SCALE,
            "routing": "ugal",
            "routing_seed": ROUTING_SEED,
            "note": "regenerate with: python -m repro.experiments.conformance --write",
        },
        "cases": cases,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cases


def compute_fingerprints(
    case_keys=None,
    check: bool = False,
    backend: str = "object",
) -> Dict[str, Dict]:
    """Fingerprints for *case_keys* (default: all), serially."""
    return {
        key: run_case(key, check=check, backend=backend)
        for key in (CASE_KEYS if case_keys is None else case_keys)
    }


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict]:
    """The committed golden fingerprints, keyed by case."""
    with open(path) as fh:
        return json.load(fh)["cases"]


def diff_fingerprints(golden: Dict, computed: Dict) -> List[str]:
    """Human-readable mismatches between two fingerprint maps."""
    problems = []
    for key in sorted(set(golden) | set(computed)):
        if key not in computed:
            problems.append(f"{key}: missing from computed set")
            continue
        if key not in golden:
            problems.append(f"{key}: not in golden file (regenerate goldens)")
            continue
        want, got = golden[key], computed[key]
        if got["digest"] is not None and want["digest"] != got["digest"]:
            problems.append(
                f"{key}: delivery-stream digest changed "
                f"({want['digest'][:12]} -> {got['digest'][:12]}, "
                f"delivered {want['delivered']} -> {got['delivered']})"
            )
        for field, ref in want["stats"].items():
            val = got["stats"].get(field)
            if val != ref:
                problems.append(f"{key}: stats.{field} changed {ref!r} -> {val!r}")
    return problems


def write_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict]:
    """Recompute all fingerprints and write the golden file."""
    cases = compute_fingerprints()
    payload = {
        "meta": {
            "scale": SCALE,
            "load": LOAD,
            "warmup_ns": WARMUP_NS,
            "measure_ns": MEASURE_NS,
            "routing_seed": ROUTING_SEED,
            "traffic_seed": TRAFFIC_SEED,
            "note": "regenerate with: python -m repro.experiments.conformance --write",
        },
        "cases": cases,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cases


def load_fault_golden(path: str = FAULT_GOLDEN_PATH) -> Dict:
    """The committed fault-conformance fingerprint."""
    with open(path) as fh:
        return json.load(fh)["case"]


def write_fault_golden(path: str = FAULT_GOLDEN_PATH) -> Dict:
    """Recompute the fault fingerprint (object reference) and write it."""
    case = run_fault_case()
    payload = {
        "meta": {
            "case": FAULT_CASE_KEY,
            "scale": SCALE,
            "load": LOAD,
            "warmup_ns": WARMUP_NS,
            "measure_ns": MEASURE_NS,
            "routing_seed": ROUTING_SEED,
            "traffic_seed": TRAFFIC_SEED,
            "fault_policy": "reroute",
            "note": "regenerate with: python -m repro.experiments.conformance --write",
        },
        "case": case,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return case


def diff_fault_fingerprint(golden: Dict, computed: Dict) -> List[str]:
    """Mismatches between two fault-case fingerprints (all fields)."""
    problems = []
    if golden["digest"] != computed["digest"]:
        problems.append(
            f"fault case: delivery-stream digest changed "
            f"({golden['digest'][:12]} -> {computed['digest'][:12]}, "
            f"delivered {golden['delivered']} -> {computed['delivered']})"
        )
    for field, ref in golden["stats"].items():
        val = computed["stats"].get(field)
        if val != ref:
            problems.append(f"fault case: stats.{field} changed {ref!r} -> {val!r}")
    for field, ref in golden["faults"].items():
        val = computed["faults"].get(field)
        if val != ref:
            problems.append(f"fault case: faults.{field} changed {ref!r} -> {val!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.conformance",
        description="verify or regenerate the golden conformance fingerprints",
    )
    parser.add_argument("--write", action="store_true",
                        help="recompute and overwrite the golden file")
    parser.add_argument("--path", default=GOLDEN_PATH,
                        help="golden JSON location (default: %(default)s)")
    parser.add_argument("--backend", choices=("object", "kernel"),
                        default="object",
                        help="simulator backend to verify against the "
                             "goldens (default: %(default)s); the goldens "
                             "themselves are always written from the "
                             "object reference")
    args = parser.parse_args(argv)
    if args.write:
        cases = write_golden(args.path)
        print(f"wrote {len(cases)} fingerprints to {args.path}")
        fault = write_fault_golden()
        print(f"wrote fault fingerprint ({fault['delivered']} delivered, "
              f"{fault['faults']['reroutes']} reroutes) to {FAULT_GOLDEN_PATH}")
        closed = write_closed_loop_golden()
        print(f"wrote {len(closed)} closed-loop fingerprints to "
              f"{CLOSED_LOOP_GOLDEN_PATH}")
        return 0
    problems = diff_fingerprints(
        load_golden(args.path), compute_fingerprints(backend=args.backend)
    )
    problems += diff_fault_fingerprint(
        load_fault_golden(), run_fault_case(backend=args.backend)
    )
    problems += diff_closed_loop(
        load_closed_loop_golden(),
        {key: run_closed_loop_case(key, backend=args.backend)
         for key in CLOSED_LOOP_CASE_KEYS},
    )
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}")
        return 1
    print(
        f"all {len(CASE_KEYS)} conformance cases, the fault case and "
        f"{len(CLOSED_LOOP_CASE_KEYS)} closed-loop cases match their "
        f"goldens (backend={args.backend})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
