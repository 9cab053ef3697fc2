"""Differential fuzzing across the simulator backends.

The golden conformance suite pins a fixed case matrix; this harness
closes the gap between those and "any configuration": seeded random
(topology x routing x traffic x fault-schedule x checker) configs run on
the object engine and the compiled kernel, asserting an identical ordered
delivery stream (sha256 fingerprint) and identical WindowStats.  A
kernel-without-listener leg compares WindowStats only, which is the one
configuration where the C delivery-accounting fast path is live -- the
listener legs gate the C route-selection path instead.

On a mismatch the harness *shrinks* the failing config (drop faults,
drop the checker, shorter run, lower load -- in that order) and prints
the smallest still-failing variant plus its seed, so a reproduction is
one copy-paste away.

CI runs a bounded number of iterations; set ``REPRO_FUZZ_ITERS=<n>``
for a deeper local run.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest

from repro.routing import IndirectRandomRouting, MinimalRouting, UGALRouting
from repro.sim import Network, SimConfig
from repro.sim.vec.kernel import load_kernel
from repro.topology import MLFM, OFT, SlimFly
from repro.traffic import ShiftTraffic, Tornado, UniformRandom

ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "6"))

_TOPOLOGIES = {
    "sf:q=4": lambda: SlimFly(4),
    "sf:q=5": lambda: SlimFly(5),
    "mlfm:h=4": lambda: MLFM(4),
    "oft:k=4": lambda: OFT(4),
}

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

_TRAFFICS = {
    "uniform": lambda n: UniformRandom(n),
    "shift": lambda n: ShiftTraffic(n, shift=max(1, n // 3)),
    "tornado": lambda n: Tornado(n),
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
        "load": rng.choice([0.2, 0.4, 0.7]),
        "measure_ns": rng.choice([600.0, 1_000.0]),
        "traffic_seed": rng.randrange(10_000),
        "routing_seed": rng.randrange(10_000),
        "check": rng.random() < 0.3,
        "faults": None,
    }
    if rng.random() < 0.4:
        # A connectivity-preserving fail/recover pair inside the run,
        # built against the topology so the link always exists.
        topo = _TOPOLOGIES[topo_key]()
        v = min(topo.neighbors(0))
        cfg["faults"] = (f"fail@400:0-{v}", f"recover@800:0-{v}")
    return cfg


def _run(cfg: dict, backend: str, listener: bool = True) -> dict:
    from repro.routing.vc import HopIndexVC

    topo = _TOPOLOGIES[cfg["topology"]]()
    # Fault schedules can stretch minimal paths past the diameter-2 VC
    # budget; provision headroom so every fuzzed config is routable.
    vc = HopIndexVC(minimal_vcs=4, indirect_vcs=8) if cfg["faults"] else None
    routing = _ROUTINGS[cfg["routing"]](topo, cfg["routing_seed"], vc)
    net = Network(topo, routing, SimConfig(
        backend=backend,
        check=cfg["check"],
        faults=cfg["faults"] or (),
    ))
    digest = hashlib.sha256()
    if listener:
        net.add_delivery_listener(
            lambda p: digest.update(
                f"{p.pid}:{p.src_node}:{p.dst_node}:{p.kind}:"
                f"{p.eject_time!r};".encode()
            )
        )
    stats = net.run_synthetic(
        _TRAFFICS[cfg["traffic"]](topo.num_nodes),
        load=cfg["load"],
        warmup_ns=300.0,
        measure_ns=cfg["measure_ns"],
        seed=cfg["traffic_seed"],
        drain=True,
    )
    return {
        "digest": digest.hexdigest() if listener else None,
        "delivered": net.stats.ejected_total,
        "stats": {name: getattr(stats, name) for name in stats.__slots__},
    }


def _backends() -> list:
    backends = ["object"]
    if load_kernel() is not None:
        backends.append("kernel")
    return backends


def _diverges(cfg: dict) -> list:
    """Run *cfg* on every backend; return human-readable mismatches."""
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
    return problems


def _shrink(cfg: dict) -> dict:
    """Smallest still-failing variant of a diverging config."""
    current = dict(cfg)
    for reduction in (
        lambda c: dict(c, faults=None),
        lambda c: dict(c, check=False),
        lambda c: dict(c, measure_ns=600.0),
        lambda c: dict(c, load=0.2),
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
@pytest.mark.parametrize("iteration", range(min(ITERS, 4)))
def test_kernel_deliver_fast_matches_object_stats(iteration):
    # No listener, no checker: the only configuration where the C
    # delivery-accounting fast path runs.  WindowStats (including the
    # order-sensitive mean/percentile latency reductions) must match
    # the object engine's per-packet accounting exactly.
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
               measure_ns=1_000.0)
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
