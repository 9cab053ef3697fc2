"""Parallel experiment orchestration: job graphs, caching, fault tolerance.

The paper's evaluation (Figs. 6–14) is a large set of independent
(topology, routing, traffic, load, seed) points.  This package executes
such campaigns across processes with checkpoint/resume semantics:

- :mod:`~repro.orchestrate.job` — declarative, content-hashed job specs
  and :func:`run_job`, the one executor of an experiment point;
- :mod:`~repro.orchestrate.store` — the disk-backed result cache;
- :mod:`~repro.orchestrate.scheduler` — serial and process-pool
  back-ends with per-job timeout, retry with backoff, and worker-crash
  recovery;
- :mod:`~repro.orchestrate.telemetry` — JSONL event stream plus live
  TTY progress;
- :mod:`~repro.orchestrate.campaign` — the policy layer
  (:func:`run_campaign`, :class:`Orchestrator`);
- :mod:`~repro.orchestrate.sweeps` — builders mapping load sweeps,
  finite exchanges and workloads onto jobs, and :func:`run_jobs`, which
  runs them inline or through an :class:`Orchestrator`.
"""

from repro.orchestrate.campaign import CampaignResult, Orchestrator, run_campaign
from repro.orchestrate.job import CACHE_VERSION, Job, JobResult, run_job, sim_config_dict
from repro.orchestrate.scheduler import (
    JobOutcome,
    ProcessPoolScheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.orchestrate.store import ResultStore
from repro.orchestrate.sweeps import (
    exchange_job,
    run_jobs,
    sweep_jobs,
    workload_job,
    workload_size_jobs,
)
from repro.orchestrate.telemetry import Telemetry

__all__ = [
    "CACHE_VERSION",
    "Job",
    "JobResult",
    "run_job",
    "sim_config_dict",
    "JobOutcome",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
    "ResultStore",
    "Telemetry",
    "CampaignResult",
    "Orchestrator",
    "run_campaign",
    "sweep_jobs",
    "exchange_job",
    "workload_job",
    "workload_size_jobs",
    "run_jobs",
]
