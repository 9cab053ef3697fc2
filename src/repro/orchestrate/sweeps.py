"""Builders that turn sweep/exchange/workload descriptions into jobs,
and :func:`run_jobs`, which runs them inline or through an orchestrator.

The seed contract mirrors :func:`repro.experiments.runner.load_sweep`:
point ``i`` of a sweep started at base seed ``s`` becomes a job with
``seed = s + i`` (routing seed ``s+i``, traffic seed ``s+i+1000`` inside
the worker) — so a sweep's jobs reproduce the library's serial
:func:`~repro.experiments.runner.load_sweep` bit for bit.  Routing and
pattern specs are ``(name, kwargs)`` pairs from
:mod:`repro.experiments.specs`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.specs import Spec
from repro.orchestrate.campaign import Orchestrator
from repro.orchestrate.job import Job, JobResult, run_job, sim_config_dict
from repro.sim.config import PAPER_CONFIG, SimConfig

__all__ = [
    "sweep_jobs",
    "exchange_job",
    "workload_job",
    "workload_size_jobs",
    "run_jobs",
]


def sweep_jobs(
    topology_spec: str,
    routing: Spec,
    pattern: Spec,
    loads: Sequence[float],
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> List[Job]:
    """One sweep job per offered-load point, ordered like the load grid."""
    routing_name, routing_kwargs = routing
    pattern_name, pattern_kwargs = pattern
    return [
        Job(
            kind="sweep",
            topology=topology_spec,
            routing=routing_name,
            routing_kwargs=dict(routing_kwargs),
            pattern=pattern_name,
            pattern_kwargs=dict(pattern_kwargs),
            load=load,
            seed=seed + i,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            arrival=arrival,
            config=sim_config_dict(config),
            tag=tag or f"{topology_spec}/{routing_name}/{pattern_name}",
        )
        for i, load in enumerate(loads)
    ]


def exchange_job(
    topology_spec: str,
    routing: Spec,
    exchange: Spec,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> Job:
    """One finite-exchange job (``exchange`` is ``("a2a"|"nn", kwargs)``)."""
    routing_name, routing_kwargs = routing
    exchange_name, exchange_kwargs = exchange
    return Job(
        kind="exchange",
        topology=topology_spec,
        routing=routing_name,
        routing_kwargs=dict(routing_kwargs),
        pattern=exchange_name,
        pattern_kwargs=dict(exchange_kwargs),
        load=0.0,
        seed=seed,
        config=sim_config_dict(config),
        tag=tag or f"{topology_spec}/{routing_name}/{exchange_name}",
    )


def workload_job(
    topology_spec: str,
    routing: Spec,
    workload: Spec,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> Job:
    """One collective-workload job.

    ``workload`` is ``(name, kwargs)`` with a name registered in
    :data:`repro.workload.WORKLOAD_GENERATORS` and kwargs understood by
    :func:`repro.workload.build_workload` (``message_bytes``, ``ranks``,
    plus generator extras like ``iterations`` or ``barrier``).
    """
    routing_name, routing_kwargs = routing
    workload_name, workload_kwargs = workload
    return Job(
        kind="workload",
        topology=topology_spec,
        routing=routing_name,
        routing_kwargs=dict(routing_kwargs),
        pattern=workload_name,
        pattern_kwargs=dict(workload_kwargs),
        load=0.0,
        seed=seed,
        config=sim_config_dict(config),
        tag=tag or f"{topology_spec}/{routing_name}/{workload_name}",
    )


def workload_size_jobs(
    topology_spec: str,
    routing: Spec,
    workload_name: str,
    message_sizes: Sequence[int],
    workload_kwargs: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> List[Job]:
    """One workload job per message size (completion-vs-size curves)."""
    base = dict(workload_kwargs or {})
    jobs = []
    for size in message_sizes:
        kwargs = dict(base)
        kwargs["message_bytes"] = int(size)
        jobs.append(
            workload_job(
                topology_spec,
                routing,
                (workload_name, kwargs),
                seed=seed,
                config=config,
                tag=(tag or f"{topology_spec}/{routing[0]}/{workload_name}")
                + f"/B{size}",
            )
        )
    return jobs


def run_jobs(jobs: Sequence[Job], orchestrator: Optional[Orchestrator] = None) -> List[JobResult]:
    """The results of *jobs*, in order.

    Without an orchestrator every job runs inline through
    :func:`run_job`, so a failing point raises its own exception,
    unretried, and nothing touches a cache.  With one, the jobs run as
    one strict campaign: cached, parallel and retried as configured,
    raising :class:`RuntimeError` if any point still fails.
    """
    if orchestrator is None:
        return [run_job(job) for job in jobs]
    result = orchestrator.run(jobs, strict=True)
    return [result.outcomes[job_id].result for job_id in result.order]
