"""Determinism regression: orchestrated execution is bit-identical to serial.

The contract from ISSUE/DESIGN: the orchestrator changes *where* a
point executes, never *what* it computes — every ``SweepPoint`` field
must match the serial :func:`load_sweep` exactly for fixed seeds,
whether the point ran in-process, in a pool worker, or came back from
the result cache.
"""

import dataclasses

import pytest

from repro.cli import parse_topology
from repro.experiments import load_sweep
from repro.orchestrate import (
    Orchestrator,
    run_campaign,
    run_jobs,
    sweep_jobs,
)
from repro.routing import MinimalRouting, UGALRouting
from repro.traffic import UniformRandom, worst_case_traffic

TOPOLOGY = "sf:q=5,p=floor"
LOADS = [0.2, 0.5]
WINDOWS = dict(warmup_ns=200.0, measure_ns=600.0)


def serial_points(routing_factory, pattern_factory, seed):
    topo = parse_topology(TOPOLOGY)
    return load_sweep(topo, routing_factory, pattern_factory, LOADS, seed=seed, **WINDOWS)


def orchestrated_points(routing, pattern, seed, orchestrator):
    jobs = sweep_jobs(TOPOLOGY, routing, pattern, LOADS, seed=seed, **WINDOWS)
    return [result.sweep_point() for result in run_jobs(jobs, orchestrator)]


class TestSerialVsOrchestrated:
    def assert_identical(self, serial, orchestrated):
        assert len(serial) == len(orchestrated)
        for a, b in zip(serial, orchestrated):
            # Field-for-field equality, not approx: same code path, same seeds.
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_minimal_uniform_in_process(self):
        serial = serial_points(
            lambda t, s: MinimalRouting(t, seed=s),
            lambda t: UniformRandom(t.num_nodes), seed=3,
        )
        orch = orchestrated_points(
            ("min", {}), ("uniform", {}), seed=3, orchestrator=Orchestrator(jobs=1)
        )
        self.assert_identical(serial, orch)

    def test_minimal_uniform_process_pool(self):
        serial = serial_points(
            lambda t, s: MinimalRouting(t, seed=s),
            lambda t: UniformRandom(t.num_nodes), seed=3,
        )
        orch = orchestrated_points(
            ("min", {}), ("uniform", {}), seed=3, orchestrator=Orchestrator(jobs=2)
        )
        self.assert_identical(serial, orch)

    def test_adaptive_worstcase_process_pool(self):
        # UGAL is the hardest case: per-point RNG state for candidate
        # selection plus congestion-sensitive decisions.
        kwargs = {"cost_mode": "sf", "c_sf": 1.0, "num_indirect": 4}
        serial = serial_points(
            lambda t, s: UGALRouting(t, seed=s, **kwargs),
            lambda t: worst_case_traffic(t, seed=11), seed=11,
        )
        orch = orchestrated_points(
            ("ugal", dict(kwargs)), ("worstcase", {"seed": 11}), seed=11,
            orchestrator=Orchestrator(jobs=2),
        )
        self.assert_identical(serial, orch)

    def test_cached_results_are_identical_too(self, tmp_path):
        serial = serial_points(
            lambda t, s: MinimalRouting(t, seed=s),
            lambda t: UniformRandom(t.num_nodes), seed=5,
        )
        for run in range(2):
            orch = Orchestrator(jobs=2, cache_dir=tmp_path, resume=True)
            points = orchestrated_points(
                ("min", {}), ("uniform", {}), seed=5, orchestrator=orch
            )
            self.assert_identical(serial, points)
        # Second pass executed nothing: pure cache.
        assert orch.last_stats["executed"] == 0
        assert orch.last_stats["cache_hits"] == len(LOADS)


class TestResumeSemantics:
    def jobs(self):
        return sweep_jobs(TOPOLOGY, ("min", {}), ("uniform", {}), LOADS, seed=5, **WINDOWS)

    def test_force_invalidates_and_reruns(self, tmp_path):
        first = Orchestrator(jobs=1, cache_dir=tmp_path, resume=True)
        first.run(self.jobs())
        assert first.last_stats["executed"] == len(LOADS)

        forced = Orchestrator(jobs=1, cache_dir=tmp_path, resume=True, force=True)
        forced.run(self.jobs())
        assert forced.last_stats["executed"] == len(LOADS)
        assert forced.last_stats["cache_hits"] == 0

    def test_partial_resume_executes_only_missing_points(self, tmp_path):
        Orchestrator(jobs=1, cache_dir=tmp_path, resume=True).run(self.jobs())
        wider = sweep_jobs(
            TOPOLOGY, ("min", {}), ("uniform", {}), LOADS + [0.8], seed=5, **WINDOWS
        )
        orch = Orchestrator(jobs=1, cache_dir=tmp_path, resume=True)
        result = orch.run(wider)
        assert orch.last_stats["cache_hits"] == len(LOADS)
        assert orch.last_stats["executed"] == 1
        assert [result.outcomes[j].ok for j in result.order] == [True] * 3

    def test_campaign_without_store_always_executes(self):
        result = run_campaign(self.jobs())
        assert result.stats["executed"] == len(LOADS)
        assert not result.failed


class TestWorkloadDeterminism:
    """Closed-loop collective runs obey the same bit-identity contract."""

    WORKLOADS = [
        ("ring-allreduce", {"message_bytes": 2048, "ranks": 12}),
        ("rd-allreduce", {"message_bytes": 1024, "ranks": 16}),
        ("phased-a2a", {"message_bytes": 512, "ranks": 10}),
    ]

    @staticmethod
    def _strip(payload):
        """Drop wall-clock telemetry; everything else must match exactly."""
        out = dict(payload)
        out.pop("driver_wall_s", None)
        return out

    def serial_payloads(self, seed):
        from repro.experiments import run_workload
        from repro.workload import build_workload

        payloads = []
        for name, kwargs in self.WORKLOADS:
            topo = parse_topology(TOPOLOGY)
            w = build_workload(
                name, topo.num_nodes, kwargs["message_bytes"], ranks=kwargs["ranks"]
            )
            payloads.append(
                run_workload(
                    topo, lambda t, s: MinimalRouting(t, seed=s), w, seed=seed
                )
            )
        return payloads

    def orchestrated_payloads(self, seed, orchestrator):
        from repro.orchestrate import workload_job

        jobs = [
            workload_job(TOPOLOGY, ("min", {}), (name, dict(kwargs)), seed=seed)
            for name, kwargs in self.WORKLOADS
        ]
        result = orchestrator.run(jobs).raise_on_failure()
        return [result.outcomes[j].result.payload for j in result.order]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_matches_serial_bit_identically(self, jobs):
        serial = self.serial_payloads(seed=7)
        orch = self.orchestrated_payloads(seed=7, orchestrator=Orchestrator(jobs=jobs))
        assert len(serial) == len(orch)
        for a, b in zip(serial, orch):
            assert self._strip(a) == self._strip(b)

    def test_repeat_seeds_fuzz(self):
        # Same seed twice -> identical; the runs really are seed-driven.
        for seed in (0, 3, 11):
            a = self.serial_payloads(seed=seed)
            b = self.serial_payloads(seed=seed)
            assert [self._strip(x) for x in a] == [self._strip(y) for y in b]

    def test_workload_results_cache_cleanly(self, tmp_path):
        serial = self.serial_payloads(seed=9)
        for run in range(2):
            orch = Orchestrator(jobs=2, cache_dir=tmp_path, resume=True)
            payloads = self.orchestrated_payloads(seed=9, orchestrator=orch)
            for a, b in zip(serial, payloads):
                assert self._strip(a) == self._strip(b)
        assert orch.last_stats["executed"] == 0
        assert orch.last_stats["cache_hits"] == len(self.WORKLOADS)
