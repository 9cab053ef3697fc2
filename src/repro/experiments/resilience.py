"""Closed-loop degradation experiments (repro.resilience).

How do the paper's diameter-two topologies absorb link failures that
happen *mid-collective*?  For each evaluation configuration (the four
paper configs plus a HyperX baseline) this module runs the same
dependency-DAG collective twice under adaptive routing -- once fault
free, once with an identical drip fault schedule injected mid-run --
and reports:

- **completion stretch**: degraded / fault-free schedule completion,
- **reroute counts**: packets diverted off dead links in flight,
- **post-fault link-load skew**: max/mean fabric-link utilization over
  the window from the first failure to completion, i.e. how evenly the
  surviving links carry the displaced traffic.

The drip schedule (``drip@T:n=K,every=E``) self-selects failed links
per topology -- seeded, connectivity-preserving -- so every topology
faces the same failure *process* at the same absolute times, the
apples-to-apples comparison the sweep is after.  ``python -m repro
resilience`` and ``python -m repro figure resilience`` front this
module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.configs import (
    ExperimentConfig,
    configs_for_scale,
    windows_for_scale,
)
from repro.experiments.report import ascii_table
from repro.sim import SimConfig

__all__ = ["resilience_data", "resilience_configs", "HYPERX_RADIX"]

#: HyperX radix per scale (balanced square; radix must be divisible by
#: 3, so it cannot share the SF/MLFM/OFT scale parameters).
HYPERX_RADIX = {"tiny": 6, "small": 12, "paper": 42}

#: Fraction of the fastest fault-free completion at which the first
#: drip failure lands: early enough that most of every schedule runs
#: degraded, late enough that traffic is in full flight.
_FAULT_AT_FRACTION = 0.3


def resilience_configs(scale: str = "tiny") -> List[ExperimentConfig]:
    """The degradation-sweep configurations: the paper's four plus HyperX."""
    configs = configs_for_scale(scale)
    r = HYPERX_RADIX[scale]
    configs.append(ExperimentConfig("hyperx", f"hyperx:r={r}", {"c": 2.0, "num_indirect": 4}))
    return configs


def resilience_data(
    scale: str = "tiny",
    seed: int = 0,
    collective: str = "ring-allreduce",
    message_bytes: Optional[int] = None,
    drip_count: int = 2,
    drip_every_ns: float = 100.0,
    drip_seed: int = 1,
    fault_policy: str = "reroute",
    backend: str = "object",
    check: bool = False,
    configs: Optional[Sequence[ExperimentConfig]] = None,
) -> Dict:
    """Mid-collective degradation comparison across topologies.

    Two passes per configuration: the fault-free baselines first (their
    completions also fix the shared failure time), then the degraded
    runs under one identical fault schedule.
    """
    # Lazy: repro.orchestrate imports this package.
    from repro.orchestrate import run_jobs, workload_job

    configs = (list(configs) if configs is not None
               else resilience_configs(scale))
    if message_bytes is None:
        message_bytes = windows_for_scale(scale).a2a_message_bytes

    def run_all(sim_config: SimConfig) -> Dict[str, Dict]:
        """Every config's adaptive-routing run of the collective, inline."""
        jobs = [
            workload_job(c.spec, c.routing_spec("ugal"),
                         (collective, {"message_bytes": int(message_bytes)}),
                         seed=seed, config=sim_config, tag=c.key)
            for c in configs
        ]
        return {job.tag: res.payload for job, res in zip(jobs, run_jobs(jobs))}

    baselines = run_all(SimConfig(backend=backend, check=check))

    first_fault_ns = _FAULT_AT_FRACTION * min(
        res["completion_ns"] for res in baselines.values()
    )
    fault_specs = (
        f"drip@{first_fault_ns:g}:n={drip_count},every={drip_every_ns:g},"
        f"seed={drip_seed}",
    )
    degraded = run_all(SimConfig(
        backend=backend, check=check,
        faults=fault_specs, fault_policy=fault_policy,
    ))

    rows: List[List[object]] = []
    results: Dict[str, Dict[str, object]] = {}
    for config in configs:
        base = baselines[config.key]
        faulty = degraded[config.key]
        stretch = (faulty["completion_ns"] / base["completion_ns"]
                   if base["completion_ns"] > 0 else 0.0)
        results[config.key] = {
            "baseline": base,
            "degraded": faulty,
            "completion_stretch": stretch,
        }
        rows.append([
            config.key,
            base["completion_ns"],
            faulty["completion_ns"],
            stretch,
            faulty.get("fault_reroutes", 0),
            faulty.get("fault_dropped", 0),
            faulty.get("post_fault_link_load_skew", 0.0),
        ])
    return {
        "collective": collective,
        "message_bytes": int(message_bytes),
        "fault_specs": list(fault_specs),
        "fault_policy": fault_policy,
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "fault-free ns", "degraded ns", "stretch",
             "reroutes", "dropped", "post-fault skew"],
            rows,
            title=(f"Mid-collective degradation: {collective} "
                   f"({drip_count} link failures from {first_fault_ns:.0f}ns, "
                   f"policy={fault_policy})"),
        ),
    }
