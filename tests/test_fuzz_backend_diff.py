"""Differential fuzzing across the simulator backends.

The golden conformance suite pins a fixed case matrix; this harness
closes the gap between those and "any configuration": seeded random
(topology x routing x traffic x arrival x load x fault-schedule x
checker x physics) configs run on the object engine and the compiled
kernel,
asserting an identical ordered delivery stream (sha256 fingerprint) and
identical WindowStats.  The physics axis moves the link and switch
latencies and the buffer off the paper's values: zero delays make the
kernel's delay lanes coincide and push events at the executing time,
and a one-packet-per-VC buffer makes credit stalls wake on the link
lane.  The traffic axis covers every pattern the kernel draws in C:
uniform, shift and tornado, hotspot traffic at three hot fractions
(hotspots may include the sender, which then falls back to a uniform
draw) and a partial permutation with idle entries, under Poisson or
deterministic arrivals.  The
topologies include a Dragonfly, whose three-hop pairs the kernel routes
through RouteCache fills; fault schedules fail one to three links in
overlapping windows, so BFS detours stay memoised while later links
fail and recover.  On fault configs the runs must also agree on the
fault manager's reroute and drop counts and leave its reroute RNG, of
which the kernel draws from a resident copy, in the same state.  A
kernel-without-listener leg compares WindowStats only, which is the one
configuration where the C delivery-accounting fast path is live -- the
listener legs gate the C route-selection path instead.  Two fixed
``fail@0`` runs, a closed loop and an exchange, hold both engines to
digests recorded while a driver's first sends were still made before
the event loop, ahead of the fault.

The closed-loop axis draws a collective from ``WORKLOAD_GENERATORS``
instead of open-loop traffic: fewer ranks than nodes, one to three halo
iterations, a phased all-to-all with or without barriers, and message
sizes off the packet grid, under the same topology, routing, physics
and fault axes.  Its object result (checked or not) must equal the
result of an unchecked kernel run with no listener, which is where the
kernel counts the messages down in C.

On a mismatch the harness *shrinks* the failing config (drop faults,
drop the checker, the paper's physics, then uniform traffic with
Poisson arrivals, shorter run, lower load -- or, on the closed-loop
axis, one halo iteration, no barrier, the fewest ranks, one-byte
messages -- in that order) and prints the smallest still-failing variant plus its
seed, so a reproduction is one copy-paste away.

CI runs a bounded number of iterations; set ``REPRO_FUZZ_ITERS=<n>``
for a deeper local run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import networkx as nx
import pytest

from repro.resilience import FaultSchedule
from repro.routing import IndirectRandomRouting, MinimalRouting, UGALRouting
from repro.routing.vc import HopIndexVC
from repro.sim import PAPER_CONFIG, Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.topology import MLFM, OFT, Dragonfly, SlimFly
from repro.traffic import (
    HotspotTraffic,
    NearestNeighbor3D,
    PermutationTraffic,
    ShiftTraffic,
    Tornado,
    UniformRandom,
)
from repro.workload import WORKLOAD_GENERATORS, build_workload

ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "6"))

_TOPOLOGIES = {
    "sf:q=4": lambda: SlimFly(4),
    "sf:q=5": lambda: SlimFly(5),
    "mlfm:h=4": lambda: MLFM(4),
    "oft:k=4": lambda: OFT(4),
    "df:p=2": lambda: Dragonfly(2),
}

#: (minimal, indirect) VC budgets of topologies whose minimal paths are
#: longer than the diameter-two defaults allow (Dragonfly: local, global,
#: local).
_VC_BUDGETS = {"df:p=2": (3, 6)}

_ROUTINGS = {
    "min-random": lambda topo, seed, vc: MinimalRouting(
        topo, seed=seed, selection="random", vc_policy=vc),
    "min-best": lambda topo, seed, vc: MinimalRouting(
        topo, seed=seed, selection="best", vc_policy=vc),
    "inr": lambda topo, seed, vc: IndirectRandomRouting(
        topo, seed=seed, vc_policy=vc),
    "ugal": lambda topo, seed, vc: UGALRouting(
        topo, seed=seed, vc_policy=vc),
}

def _hotspot(fraction: float):
    """Hotspot traffic toward one to three drawn nodes."""
    return lambda n, rng: HotspotTraffic(
        n, rng.sample(range(n), rng.randint(1, 3)), hot_fraction=fraction)


def _partial_permutation(n: int, rng: random.Random) -> PermutationTraffic:
    """A random permutation with fixed points and about a third of the
    senders idle."""
    dsts = list(range(n))
    rng.shuffle(dsts)
    return PermutationTraffic([
        -1 if d == src or rng.random() < 0.3 else d
        for src, d in enumerate(dsts)
    ])


#: Pattern factories ``(num_nodes, rng) -> pattern``; *rng* is seeded
#: from the config's traffic seed.
_TRAFFICS = {
    "uniform": lambda n, rng: UniformRandom(n),
    "shift": lambda n, rng: ShiftTraffic(n, shift=max(1, n // 3)),
    "tornado": lambda n, rng: Tornado(n),
    "hotspot:0.0": _hotspot(0.0),
    "hotspot:0.3": _hotspot(0.3),
    "hotspot:1.0": _hotspot(1.0),
    "partial-permutation": _partial_permutation,
}

#: The paper's physics, which the shrinker restores.
PAPER_PHYSICS = {
    "link_latency_ns": PAPER_CONFIG.link_latency_ns,
    "switch_latency_ns": PAPER_CONFIG.switch_latency_ns,
    "buffer_bytes_per_port": PAPER_CONFIG.buffer_bytes_per_port,
}


def _random_physics(rng: random.Random) -> dict:
    return {
        "link_latency_ns": rng.choice(
            [0.0, PAPER_CONFIG.packet_time_ns, 50.0]),
        "switch_latency_ns": rng.choice([0.0, 100.0]),
        "buffer_bytes_per_port": rng.choice(
            [1024, PAPER_PHYSICS["buffer_bytes_per_port"]]),
    }


def _random_config(seed: int) -> dict:
    """One fuzz case: every axis drawn from *seed* (reproducible)."""
    rng = random.Random(seed)
    topo_key = rng.choice(sorted(_TOPOLOGIES))
    cfg = {
        "seed": seed,
        "topology": topo_key,
        "routing": rng.choice(sorted(_ROUTINGS)),
        "traffic": rng.choice(sorted(_TRAFFICS)),
        "arrival": rng.choice(["deterministic", "poisson"]),
        "load": rng.choice([0.2, 0.4, 0.7, 0.9]),
        "measure_ns": rng.choice([600.0, 1_000.0]),
        "traffic_seed": rng.randrange(10_000),
        "routing_seed": rng.randrange(10_000),
        "check": rng.random() < 0.3,
        "faults": None,
    }
    if rng.random() < 0.4:
        cfg["faults"] = _fault_churn(_TOPOLOGIES[topo_key](), rng)
    cfg["physics"] = _random_physics(rng)
    return cfg


def _min_ranks(name: str) -> int:
    """The fewest ranks collective *name* runs on (a 3D torus needs
    eight)."""
    return 8 if name == "halo3d" else 2


def _random_closed_loop_config(seed: int) -> dict:
    """One fuzz case on the closed-loop axis, drawn from *seed*.

    Up to 32 ranks keep a checked object run near a second.  Sizes are
    1-1023 B and never a multiple of the 256 B packet.
    """
    rng = random.Random(seed)
    topo_key = rng.choice(sorted(_TOPOLOGIES))
    topo = _TOPOLOGIES[topo_key]()
    name = rng.choice(sorted(WORKLOAD_GENERATORS))
    workload = {
        "name": name,
        "ranks": rng.randint(_min_ranks(name), min(topo.num_nodes - 1, 32)),
        "message_bytes": 256 * rng.randrange(4) + rng.randrange(1, 256),
    }
    if name == "halo3d":
        workload["iterations"] = rng.randint(1, 3)
    if name == "phased-a2a":
        workload["barrier"] = rng.random() < 0.5
    return {
        "seed": seed,
        "topology": topo_key,
        "routing": rng.choice(sorted(_ROUTINGS)),
        "routing_seed": rng.randrange(10_000),
        "check": rng.random() < 0.3,
        "faults": _fault_churn(topo, rng) if rng.random() < 0.4 else None,
        "physics": _random_physics(rng),
        "workload": workload,
    }


def _fault_churn(topo, rng: random.Random) -> tuple:
    """One to three links failing in overlapping windows: every failure
    lands before the first recovery, recoveries come in a drawn order,
    and the router graph stays connected with all of them down.

    A failed link is its endpoints' only minimal path, so routing that
    pair takes RouteCache's BFS detour; each later link shares no router
    with the earlier ones and fails while their detours are memoised.
    """
    graph = topo.to_networkx()
    edges = sorted(topo.edges())
    links = []
    for _ in range(rng.randint(1, 3)):
        used = {r for link in links for r in link}
        candidates = [e for e in edges if not used & set(e)]
        rng.shuffle(candidates)
        for u, v in candidates:
            graph.remove_edge(u, v)
            if nx.is_connected(graph):
                links.append((u, v))
                break
            graph.add_edge(u, v)
    fails = sorted(rng.sample(range(350, 600, 10), len(links)))
    recovers = rng.sample(range(650, 900, 10), len(links))
    return tuple(f"fail@{t}:{u}-{v}" for t, (u, v) in zip(fails, links)) + tuple(
        f"recover@{t}:{u}-{v}" for t, (u, v) in zip(recovers, links))


def _vc_policy(cfg: dict, topo):
    """The topology's VC budgets (the routing's default when unlisted),
    grown under faults to cover the longest shortest path with every
    scheduled link down: BFS detours can be that long, and Valiant
    routes compose two of them."""
    base = _VC_BUDGETS.get(cfg["topology"])
    if not cfg["faults"]:
        return HopIndexVC(*base) if base else None
    graph = topo.to_networkx()
    graph.remove_edges_from(
        {link for ev in FaultSchedule(cfg["faults"]).expand(topo)
         for link in ev.links})
    minimal = max(4, nx.diameter(graph), base[0] if base else 0)
    return HopIndexVC(minimal_vcs=minimal, indirect_vcs=2 * minimal)


def _fault_state(net) -> tuple:
    """The fault manager's reroutes, drops and reroute-RNG state (the
    kernel draws from a resident copy of that RNG and hands it back),
    or ``None`` without faults."""
    fm = net.fault_manager
    if fm is None:
        return None
    return fm.reroutes, fm.dropped, fm.rng.getstate()


def _run(cfg: dict, backend: str, listener: bool = True) -> dict:
    """One run of *cfg*: the delivery digest (with *listener*), the
    WindowStats and the fault state, or on the closed-loop axis the
    workload's result and the fault state."""
    topo = _TOPOLOGIES[cfg["topology"]]()
    routing = _ROUTINGS[cfg["routing"]](
        topo, cfg["routing_seed"], _vc_policy(cfg, topo))
    net = Network(topo, routing, SimConfig(
        backend=backend,
        check=cfg["check"],
        faults=cfg["faults"] or (),
        **cfg["physics"],
    ))
    digest = hashlib.sha256()
    if listener:
        net.add_delivery_listener(
            lambda p: digest.update(
                f"{p.pid}:{p.src_node}:{p.dst_node}:{p.kind}:"
                f"{p.eject_time!r};".encode()
            )
        )
    if cfg.get("workload"):
        spec = dict(cfg["workload"])
        work = build_workload(spec.pop("name"), topo.num_nodes,
                              spec.pop("message_bytes"), **spec)
        result = net.run_workload(work)
        return {
            "digest": digest.hexdigest() if listener else None,
            "result": {k: v for k, v in result.items()
                       if k not in ("events", "driver_wall_s")},
            "faults": _fault_state(net),
        }
    stats = net.run_synthetic(
        _TRAFFICS[cfg["traffic"]](
            topo.num_nodes, random.Random(cfg["traffic_seed"])),
        load=cfg["load"],
        warmup_ns=300.0,
        measure_ns=cfg["measure_ns"],
        arrival=cfg["arrival"],
        seed=cfg["traffic_seed"],
        drain=True,
    )
    kstats = getattr(net.engine, "kernel_stats", lambda: None)()
    return {
        "digest": digest.hexdigest() if listener else None,
        "delivered": net.stats.ejected_total,
        "stats": {name: getattr(stats, name) for name in stats.__slots__},
        "faults": _fault_state(net),
        "route_fills": (kstats["escapes"]["route_fill"]["count"]
                        if kstats else None),
        "detours": kstats["detours"] if kstats else None,
    }


def _backends() -> list:
    backends = ["object"]
    if load_kernel() is not None:
        backends.append("kernel")
    return backends


def _diverges(cfg: dict) -> list:
    """Run *cfg* on every backend; return human-readable mismatches."""
    if cfg.get("workload"):
        return _closed_loop_diverges(cfg)
    ref = _run(cfg, "object")
    problems = []
    for backend in _backends()[1:]:
        got = _run(cfg, backend)
        if got["digest"] != ref["digest"]:
            problems.append(
                f"{backend}: delivery stream diverged "
                f"({ref['delivered']} vs {got['delivered']} delivered)"
            )
        for field, want in ref["stats"].items():
            if got["stats"][field] != want:
                problems.append(
                    f"{backend}: stats.{field} {want!r} -> "
                    f"{got['stats'][field]!r}"
                )
        if got["faults"] != ref["faults"]:
            problems.append(f"{backend}: fault reroutes, drops or RNG state "
                            f"diverged")
    return problems


def _closed_loop_diverges(cfg: dict) -> list:
    """The object result of a closed-loop *cfg* against an unchecked
    kernel run with no listener (the C message countdown)."""
    if len(_backends()) < 2:
        return []
    ref = _run(cfg, "object", listener=False)
    got = _run(dict(cfg, check=False), "kernel", listener=False)
    problems = [
        f"kernel: result.{field} {ref['result'].get(field)!r} -> "
        f"{got['result'].get(field)!r}"
        for field in sorted(set(ref["result"]) | set(got["result"]))
        if ref["result"].get(field) != got["result"].get(field)
    ]
    if got["faults"] != ref["faults"]:
        problems.append("kernel: fault reroutes, drops or RNG state diverged")
    return problems


def _workload_reduction(change):
    """A shrink step setting the closed-loop workload fields that
    ``change(workload)`` names and the workload has."""
    def reduce(c: dict) -> dict:
        work = c["workload"]
        return dict(c, workload=dict(
            work, **{k: v for k, v in change(work).items() if k in work}))
    return reduce


def _shrink(cfg: dict) -> dict:
    """Smallest still-failing variant of a diverging config."""
    current = dict(cfg)
    axis = (
        (
            _workload_reduction(lambda w: {"iterations": 1}),
            _workload_reduction(lambda w: {"barrier": False}),
            _workload_reduction(lambda w: {"ranks": _min_ranks(w["name"])}),
            _workload_reduction(lambda w: {"message_bytes": 1}),
        )
        if cfg.get("workload")
        else (
            lambda c: dict(c, traffic="uniform", arrival="poisson"),
            lambda c: dict(c, measure_ns=600.0),
            lambda c: dict(c, load=0.2),
        )
    )
    for reduction in (
        lambda c: dict(c, faults=None),
        lambda c: dict(c, check=False),
        lambda c: dict(c, physics=PAPER_PHYSICS),
        *axis,
    ):
        cand = reduction(current)
        if cand != current and _diverges(cand):
            current = cand
    return current


@pytest.mark.parametrize("iteration", range(ITERS))
def test_backends_agree_on_random_config(iteration):
    cfg = _random_config(20_260_800 + iteration)
    problems = _diverges(cfg)
    if problems:
        small = _shrink(cfg)
        pytest.fail(
            "backend divergence on fuzzed config\n"
            f"  config: {cfg}\n"
            f"  shrunk: {small}\n  " + "\n  ".join(_diverges(small) or problems)
        )


@pytest.mark.skipif(load_kernel() is None,
                    reason="compiled kernel unavailable")
@pytest.mark.parametrize("iteration", range(ITERS))
def test_backends_agree_on_random_closed_loop(iteration):
    cfg = _random_closed_loop_config(20_261_017 + iteration)
    problems = _diverges(cfg)
    if problems:
        small = _shrink(cfg)
        pytest.fail(
            "closed-loop divergence on fuzzed config\n"
            f"  config: {cfg}\n"
            f"  shrunk: {small}\n  " + "\n  ".join(_diverges(small) or problems)
        )


@pytest.mark.skipif(load_kernel() is None,
                    reason="compiled kernel unavailable")
@pytest.mark.parametrize("routing", ["inr", "ugal"])
def test_backends_agree_while_a_detour_outlives_a_later_fault(routing):
    # Router 0's link to its first neighbour is that pair's only minimal
    # path, so while it is down the pair routes on the BFS detour, which
    # RouteCache memoises on the object engine and the kernel takes from
    # a BFS tree dropped whenever a port dies or recovers.  A link
    # sharing no router with it fails while the detour is memoised; they
    # recover in fail order.  (The kernel's route table is its C route
    # path's, so the run is unchecked.)
    topo = _TOPOLOGIES["sf:q=5"]()
    a, b = 0, min(topo.neighbors(0))
    c, d = next(e for e in sorted(topo.edges()) if not {a, b} & set(e))
    cfg = dict(
        _random_config(0), topology="sf:q=5", routing=routing,
        traffic="uniform", arrival="poisson", load=0.7, measure_ns=600.0,
        check=False,
        physics=PAPER_PHYSICS,
        faults=(f"fail@350:{a}-{b}", f"fail@500:{c}-{d}",
                f"recover@650:{a}-{b}", f"recover@800:{c}-{d}"),
    )
    assert not _diverges(cfg)
    # The cut pairs took the kernel's own detours: nothing called into
    # RouteCache.
    got = _run(cfg, "kernel")
    assert got["detours"] > 0
    assert got["route_fills"] == 0


#: Digests of the ``fail@0`` runs below, recorded while a driver's first
#: sends were made before the event loop started: the sends must still
#: precede the fault at time 0 now that the run's first event makes them.
_FAIL_AT_ZERO_DIGESTS = {
    "closed-loop": "3040cea823b36a872dd9ea8190a8096f7ab724fe965410d5b57740c9c6e00548",
    "exchange": "3d182954a989bd98d28966c595015b2e54997d341f09e09f55994479e994da5a",
}


def _fail_at_zero(kind: str, backend: str) -> str:
    """One ``fail@0`` run on Slim Fly q=5 with UGAL: a two-iteration
    halo (*kind* ``"closed-loop"``) or an interleaved nearest-neighbour
    exchange (``"exchange"``) while router 0's first link is down from
    time 0 to 900 ns.  Returns a digest over the delivery stream, the
    result and the fault state."""
    topo = _TOPOLOGIES["sf:q=5"]()
    a, b = 0, min(topo.neighbors(0))
    net = Network(topo, UGALRouting(topo, seed=4), SimConfig(
        backend=backend, faults=(f"fail@0:{a}-{b}", f"recover@900:{a}-{b}")))
    digest = hashlib.sha256()
    net.add_delivery_listener(
        lambda p: digest.update(
            f"{p.pid}:{p.src_node}:{p.dst_node}:{p.kind}:{p.msg_id}:"
            f"{p.eject_time!r};".encode()))
    if kind == "closed-loop":
        result = net.run_workload(build_workload(
            "halo3d", topo.num_nodes, 700, iterations=2))
    else:
        result = net.run_exchange(
            NearestNeighbor3D(topo.num_nodes, message_bytes=700))
    assert net.fault_manager.reroutes > 0
    payload = {
        "deliveries": digest.hexdigest(),
        "result": {k: v for k, v in result.items()
                   if k not in ("events", "driver_wall_s")},
        "faults": net.fault_manager.summary(),
        "rng": net.fault_manager.rng.getstate(),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("kind", sorted(_FAIL_AT_ZERO_DIGESTS))
def test_fail_at_zero_follows_the_first_sends(kind, backend):
    assert _fail_at_zero(kind, backend) == _FAIL_AT_ZERO_DIGESTS[kind]


@pytest.mark.skipif(load_kernel() is None,
                    reason="compiled kernel unavailable")
@pytest.mark.parametrize("iteration", range(min(ITERS, 4)))
def test_kernel_deliver_fast_matches_object_stats(iteration):
    # No listener, no checker: no send or delivery calls Python.
    # WindowStats (including the order-sensitive mean/percentile latency
    # reductions), accounted in C, must match the object engine's
    # per-packet accounting exactly.
    cfg = dict(_random_config(10_987 + iteration), check=False)
    ref = _run(cfg, "object", listener=False)
    got = _run(cfg, "kernel", listener=False)
    assert got["delivered"] == ref["delivered"], cfg
    assert got["stats"] == ref["stats"], (
        f"deliver-fast stats diverged on {cfg}: "
        f"{ref['stats']} != {got['stats']}"
    )


def test_shrinker_reports_minimal_config(monkeypatch):
    # The shrinker itself: given a fake divergence predicate that only
    # needs the fault axis, the reported config has everything else
    # reduced away.
    cfg = _random_config(1)
    cfg.update(check=True, faults=("fail@400:0-1",), load=0.7,
               measure_ns=1_000.0, traffic="hotspot:0.3",
               arrival="deterministic",
               physics=dict(PAPER_PHYSICS, link_latency_ns=0.0))
    calls = []

    def fake_diverges(c):
        calls.append(c)
        return ["boom"] if c["faults"] else []

    monkeypatch.setattr("tests.test_fuzz_backend_diff._diverges",
                        fake_diverges, raising=False)
    import tests.test_fuzz_backend_diff as mod

    small = mod._shrink(cfg)
    assert small["faults"]  # the culprit axis survives
    assert small["check"] is False and small["load"] == 0.2
    assert small["physics"] == PAPER_PHYSICS
    assert small["traffic"] == "uniform" and small["arrival"] == "poisson"


def test_shrinker_reduces_the_closed_loop_axis(monkeypatch):
    # A closed-loop config shrinks along its own axis: with a fake
    # divergence that needs only the fault axis, the workload ends at
    # one iteration of the fewest ranks a halo runs on, sending one
    # byte, and the open-loop fields are never added.
    cfg = dict(_random_closed_loop_config(3), check=True,
               faults=("fail@400:0-1",),
               physics=dict(PAPER_PHYSICS, link_latency_ns=0.0),
               workload={"name": "halo3d", "ranks": 20,
                         "message_bytes": 700, "iterations": 3})

    def fake_diverges(c):
        return ["boom"] if c["faults"] else []

    import tests.test_fuzz_backend_diff as mod

    monkeypatch.setattr(mod, "_diverges", fake_diverges)
    small = mod._shrink(cfg)
    assert small["faults"] and small["check"] is False
    assert small["physics"] == PAPER_PHYSICS
    assert small["workload"] == {"name": "halo3d", "ranks": 8,
                                 "message_bytes": 1, "iterations": 1}
    assert "traffic" not in small and "load" not in small
