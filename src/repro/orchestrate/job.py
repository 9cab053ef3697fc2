"""Declarative, picklable job specs and their single-process executor.

A :class:`Job` captures one simulation point as plain data — topology
spec string, routing/pattern names plus keyword dictionaries, load,
seed and the :class:`~repro.sim.config.SimConfig` fields — so it can
cross a process boundary and be content-hashed for result caching.
It is the one description of a point: every simulation figure and the
``sweep``, ``campaign`` and ``exchange`` commands build jobs.
``run_job`` is the one executor: it rebuilds the live objects through
the :mod:`repro.experiments.specs` registry and runs them through the
library primitives (:func:`repro.experiments.runner.run_sweep_point`,
:func:`~repro.experiments.runner.run_exchange`,
:func:`~repro.experiments.runner.run_workload`).  It runs inline when
no orchestrator is given and inside each worker otherwise, so a point
gives the same result wherever it executes.

Four job kinds exist:

- ``"sweep"``: one offered-load point (the unit of Figs. 6–12),
- ``"exchange"``: one finite exchange to completion (Figs. 13/14),
- ``"workload"``: one collective-communication DAG driven closed-loop
  to completion (:mod:`repro.workload`),
- ``"probe"``: a scheduler self-test job (sleep / raise / hard-exit),
  used by the fault-tolerance tests and CI smoke runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.experiments.runner import (
    SweepPoint,
    run_exchange,
    run_sweep_point,
    run_workload,
)
from repro.experiments.specs import (
    build_exchange,
    build_pattern,
    build_routing,
    build_workload,
    parse_topology,
)
from repro.sim.config import SimConfig

__all__ = ["Job", "JobResult", "run_job", "CACHE_VERSION", "sim_config_dict"]

#: Bumped whenever the result schema or simulation semantics change in a
#: way that invalidates cached results; part of every content hash.
#: v2: SimConfig grew ``check`` (the invariant checker), so the config
#: dict -- and with it every content hash -- changed shape; checked and
#: unchecked runs cache separately (a cached hit would skip verification).
#: v3: SimConfig grew ``backend`` (object vs. batched engine).  Results
#: are bit-identical across backends by contract, but the config dict
#: changed shape, and per-backend caching keeps a conformance regression
#: from hiding behind a stale cross-backend cache hit.
#: v4: SimConfig grew ``faults``/``fault_policy`` (repro.resilience).
#: Fault-bearing and fault-free runs of the same point measure different
#: networks, so they must hash -- and cache -- separately.
#: v5: SimConfig.backend accepts ``"kernel"`` (the compiled event
#: kernel, repro.sim.vec.kernel).  Kernel results are bit-identical by
#: contract, but per-backend caching keeps a kernel conformance
#: regression from hiding behind a stale cross-backend cache hit --
#: same reasoning as v3.
CACHE_VERSION = 5


def sim_config_dict(config: SimConfig) -> Dict[str, Any]:
    """A SimConfig as a plain, hashable-by-content dictionary.

    JSON-canonical: the ``faults`` tuple becomes a list, so a spec
    survives a JSON round-trip unchanged (``SimConfig.__post_init__``
    re-normalizes on reconstruction).
    """
    d = dataclasses.asdict(config)
    d["faults"] = list(d["faults"])
    return d


@dataclass
class Job:
    """One unit of campaign work, as plain picklable data.

    ``tag`` is a presentation label (figure/series the point belongs
    to); it is *excluded* from the content hash so relabelled reruns of
    the same computation still hit the cache.
    """

    kind: str = "sweep"  # "sweep" | "exchange" | "workload" | "probe"
    topology: str = ""  # CLI spec string, e.g. "sf:q=5,p=floor"
    routing: str = "min"
    routing_kwargs: Dict[str, Any] = field(default_factory=dict)
    pattern: str = "uniform"  # traffic pattern or exchange name
    pattern_kwargs: Dict[str, Any] = field(default_factory=dict)
    load: float = 0.5
    seed: int = 0
    warmup_ns: float = 2_000.0
    measure_ns: float = 6_000.0
    arrival: str = "poisson"
    config: Dict[str, Any] = field(default_factory=lambda: sim_config_dict(SimConfig()))
    params: Dict[str, Any] = field(default_factory=dict)  # probe/exchange extras
    tag: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON of every result-determining field."""
        payload = self.to_dict()
        payload.pop("tag", None)
        payload["__cache_version__"] = CACHE_VERSION
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def sim_config(self) -> SimConfig:
        return SimConfig(**self.config)


@dataclass
class JobResult:
    """What a worker hands back: measured payload plus run telemetry."""

    kind: str
    payload: Dict[str, Any]
    events: int = 0
    duration_s: float = 0.0
    worker_pid: int = 0
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def sweep_point(self) -> SweepPoint:
        if self.kind != "sweep":
            raise ValueError(f"not a sweep result (kind={self.kind!r})")
        return SweepPoint(**self.payload)


# --------------------------------------------------------------------------
# Execution.
# --------------------------------------------------------------------------


def _run_probe(job: Job) -> Dict[str, Any]:
    """Scheduler self-test behaviours (used by tests and CI smoke)."""
    behavior = job.params.get("behavior", "ok")
    if behavior == "ok":
        return {"value": job.params.get("value", job.seed)}
    if behavior == "sleep":
        time.sleep(float(job.params.get("seconds", 60.0)))
        return {"value": job.params.get("value", job.seed)}
    if behavior == "raise":
        raise RuntimeError(job.params.get("message", "probe job asked to raise"))
    if behavior == "exit":
        # Simulate a hard worker crash: no exception, no result message.
        os._exit(int(job.params.get("code", 17)))
    raise ValueError(f"unknown probe behavior {behavior!r}")


def run_job(job: Job) -> JobResult:
    """Execute one job in the current process and return its result.

    The seed contract matches :func:`repro.experiments.runner.load_sweep`
    exactly: for a sweep job, ``job.seed`` seeds the routing algorithm
    and ``job.seed + 1000`` seeds the traffic/arrival process, so a job
    built with ``seed = base + i`` reproduces point ``i`` of a serial
    sweep that started from ``base``.
    """
    start = time.perf_counter()
    stats_out: Dict[str, Any] = {}

    if job.kind == "probe":
        payload = _run_probe(job)
    elif job.kind == "sweep":
        topo = parse_topology(job.topology)
        routing = build_routing(job.routing, job.routing_kwargs, topo, job.seed)
        pattern = build_pattern(job.pattern, job.pattern_kwargs, topo)
        point = run_sweep_point(
            topo,
            routing,
            pattern,
            job.load,
            warmup_ns=job.warmup_ns,
            measure_ns=job.measure_ns,
            traffic_seed=job.seed + 1000,
            arrival=job.arrival,
            config=job.sim_config(),
            stats_out=stats_out,
        )
        payload = dataclasses.asdict(point)
    elif job.kind == "exchange":
        topo = parse_topology(job.topology)
        exchange = build_exchange(job.pattern, job.pattern_kwargs, topo)
        payload = dict(
            run_exchange(
                topo,
                lambda t, s: build_routing(job.routing, job.routing_kwargs, t, s),
                exchange,
                seed=job.seed,
                config=job.sim_config(),
            )
        )
    elif job.kind == "workload":
        topo = parse_topology(job.topology)
        workload = build_workload(job.pattern, job.pattern_kwargs, topo)
        payload = dict(
            run_workload(
                topo,
                lambda t, s: build_routing(job.routing, job.routing_kwargs, t, s),
                workload,
                seed=job.seed,
                config=job.sim_config(),
            )
        )
        stats_out["events_executed"] = payload.get("events", 0)
    else:
        raise ValueError(f"unknown job kind {job.kind!r}")

    return JobResult(
        kind=job.kind,
        payload=payload,
        events=int(stats_out.get("events_executed", 0)),
        duration_s=time.perf_counter() - start,
        worker_pid=os.getpid(),
    )
