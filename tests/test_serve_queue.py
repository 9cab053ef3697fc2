"""Unit tests for the service core: queue, coalescer, quotas, autoscaler.

Everything here drives the synchronous state machine directly — no
sockets, no event loop — which is exactly why the queue layer is kept
asyncio-free.
"""

from __future__ import annotations

import pytest

from repro.orchestrate.job import Job, JobResult
from repro.serve import (
    Autoscaler,
    JobQueue,
    QuotaExceeded,
    TenantQuota,
    ValidationError,
    job_from_request,
    tenant_from_headers,
)
from repro.serve.metrics import LatencyWindow


def probe(value: int = 0, seconds: float = 0.0) -> Job:
    params = {"value": value}
    if seconds:
        params.update(behavior="sleep", seconds=seconds)
    return Job(kind="probe", params=params)


def result_for(job: Job) -> JobResult:
    return JobResult(kind=job.kind, payload={"value": job.params.get("value", 0)})


def make_queue(max_queued: int = 4, max_running: int = 2) -> JobQueue:
    return JobQueue(quota=TenantQuota(max_queued=max_queued, max_running=max_running))


class TestValidation:
    def test_round_trips_a_valid_body(self):
        body = {"kind": "sweep", "topology": "sf:q=5", "load": 0.4, "seed": 3}
        job = job_from_request(body)
        assert job.topology == "sf:q=5"
        assert job.load == 0.4

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            job_from_request([1, 2])

    def test_rejects_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown job field"):
            job_from_request({"kind": "sweep", "topology": "sf:q=5", "speed": 9})

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="'load'"):
            job_from_request({"kind": "sweep", "topology": "sf:q=5", "load": "fast"})
        with pytest.raises(ValidationError, match="'seed'"):
            job_from_request({"kind": "sweep", "topology": "sf:q=5", "seed": True})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            job_from_request({"kind": "banana"})

    def test_requires_topology_for_sim_kinds(self):
        with pytest.raises(ValidationError, match="topology"):
            job_from_request({"kind": "sweep"})
        job_from_request({"kind": "probe"})  # probes don't need one

    def test_jobs_carry_simulator_backend(self):
        # The config dict flows verbatim into SimConfig, so served jobs
        # can select the kernel backend -- and two jobs differing only
        # in backend must neither coalesce nor share a cache entry
        # (per-backend caching keeps conformance regressions visible).
        body = {"kind": "sweep", "topology": "sf:q=5",
                "config": {"backend": "kernel"}}
        job = job_from_request(body)
        assert job.sim_config().backend == "kernel"
        other = job_from_request(
            {"kind": "sweep", "topology": "sf:q=5",
             "config": {"backend": "object"}}
        )
        assert job.content_hash() != other.content_hash()

    def test_tenant_header(self):
        assert tenant_from_headers({}) == "public"
        assert tenant_from_headers({"x-tenant": "team-a"}) == "team-a"
        with pytest.raises(ValidationError):
            tenant_from_headers({"x-tenant": "bad tenant!"})


class TestCoalescing:
    def test_identical_jobs_share_one_execution(self):
        q = make_queue()
        records = [q.submit(probe(7), f"t{i}") for i in range(5)]
        assert q.depth() == 1  # one execution for five records
        assert [r.coalesced for r in records] == [False, True, True, True, True]
        assert len({r.execution_id for r in records}) == 1
        assert q.metrics.misses == 1
        assert q.metrics.coalesced == 4

    def test_distinct_jobs_do_not_coalesce(self):
        q = make_queue()
        q.submit(probe(1), "a")
        q.submit(probe(2), "a")
        assert q.depth() == 2

    def test_all_coalesced_records_resolve_together(self):
        q = make_queue()
        records = [q.submit(probe(7), f"t{i}") for i in range(3)]
        execution = q.next_dispatch()
        assert all(q.records[r.id].status == "running" for r in records)
        resolved = q.complete(execution, result_for(execution.job))
        assert len(resolved) == 3
        assert all(r.status == "done" for r in resolved)
        assert all(r.result["payload"] == {"value": 7} for r in resolved)

    def test_coalesce_after_completion_is_a_new_execution(self):
        q = make_queue()
        q.submit(probe(7), "a")
        execution = q.next_dispatch()
        q.complete(execution, result_for(execution.job))
        record = q.submit(probe(7), "b")
        assert record.coalesced is False  # in-flight window closed

    def test_failure_propagates_to_every_record(self):
        q = make_queue()
        q.submit(probe(7), "a")
        q.submit(probe(7), "b")
        execution = q.next_dispatch()
        resolved = q.complete(execution, None, error="worker crashed")
        assert [r.status for r in resolved] == ["failed", "failed"]
        assert all("crashed" in r.error for r in resolved)
        assert q.metrics.failed == 1


class TestQuotas:
    def test_queue_quota_rejects_with_429(self):
        q = make_queue(max_queued=2)
        q.submit(probe(1), "a")
        q.submit(probe(2), "a")
        with pytest.raises(QuotaExceeded):
            q.submit(probe(3), "a")
        assert q.metrics.rejected == 1
        assert q.tenants.get("a").rejected == 1

    def test_quota_is_per_tenant(self):
        q = make_queue(max_queued=1)
        q.submit(probe(1), "a")
        q.submit(probe(2), "b")  # b's own bucket
        with pytest.raises(QuotaExceeded):
            q.submit(probe(3), "a")

    def test_coalesced_attach_is_quota_free(self):
        q = make_queue(max_queued=1)
        q.submit(probe(1), "a")
        record = q.submit(probe(1), "a")  # same hash: attaches, no slot
        assert record.coalesced is True

    def test_dispatch_honours_max_running(self):
        q = make_queue(max_queued=8, max_running=1)
        q.submit(probe(1), "a")
        q.submit(probe(2), "a")
        assert q.next_dispatch() is not None
        assert q.next_dispatch() is None  # tenant at running ceiling
        assert q.depth() == 1


class TestFairness:
    def test_round_robin_across_tenants(self):
        q = make_queue(max_queued=8, max_running=8)
        for i in range(3):
            q.submit(probe(10 + i), "alice")
        q.submit(probe(20), "bob")
        q.submit(probe(30), "carol")
        owners = []
        while True:
            execution = q.next_dispatch()
            if execution is None:
                break
            owners.append(execution.owner)
        # Interleaved, not alice's whole backlog first.
        assert owners[:3] == ["alice", "bob", "carol"]
        assert owners.count("alice") == 3

    def test_tenant_at_ceiling_does_not_starve_others(self):
        q = make_queue(max_queued=8, max_running=1)
        q.submit(probe(1), "alice")
        q.submit(probe(2), "alice")
        q.submit(probe(3), "bob")
        first = q.next_dispatch()
        second = q.next_dispatch()
        assert first.owner == "alice"
        assert second.owner == "bob"  # alice is at max_running=1
        assert q.next_dispatch() is None


class TestDrainPersistence:
    def test_save_and_restore_queued_work(self, tmp_path):
        q = make_queue()
        r1 = q.submit(probe(1), "a")
        r2 = q.submit(probe(1), "b")  # coalesced onto r1's execution
        r3 = q.submit(probe(2), "a")
        running = q.next_dispatch()  # r1's execution starts running
        state = tmp_path / "queue_state.json"
        assert q.save_state(state) == 1  # only the still-queued execution

        fresh = make_queue()
        assert fresh.load_state(state) == 1
        assert fresh.depth() == 1
        # Same record id survives the restart, so clients keep polling.
        assert r3.id in fresh.records
        assert fresh.records[r3.id].status == "queued"
        assert r1.id not in fresh.records  # running work is not resurrected
        assert running.record_ids == [r1.id, r2.id]

    def test_restored_ids_do_not_collide_with_new_ones(self, tmp_path):
        q = make_queue()
        q.submit(probe(1), "a")
        state = tmp_path / "s.json"
        q.save_state(state)
        fresh = make_queue()
        fresh.load_state(state)
        new = fresh.submit(probe(2), "a")
        assert new.id not in (r for r in [] ) or new.id != "r-000001"
        assert len(fresh.records) == 2

    def test_empty_queue_removes_stale_state(self, tmp_path):
        state = tmp_path / "s.json"
        state.write_text("{}")
        q = make_queue()
        assert q.save_state(state) == 0
        assert not state.exists()

    def test_corrupt_state_restores_nothing(self, tmp_path):
        state = tmp_path / "s.json"
        state.write_text("{ nope")
        q = make_queue()
        assert q.load_state(state) == 0
        assert q.depth() == 0

    def test_requeue_returns_execution_to_queue(self):
        q = make_queue()
        record = q.submit(probe(1), "a")
        execution = q.next_dispatch()
        assert q.records[record.id].status == "running"
        q.requeue(execution)
        assert q.records[record.id].status == "queued"
        assert q.depth() == 1
        assert q.running_count() == 0
        assert q.next_dispatch() is execution


class TestCacheHitRecords:
    def test_cache_hit_record_is_terminal_immediately(self):
        q = make_queue()
        job = probe(9)
        record = q.record_cache_hit(job, "a", result_for(job))
        assert record.status == "done"
        assert record.cached is True
        assert record.result["payload"] == {"value": 9}
        assert q.metrics.cache_hits == 1
        assert q.depth() == 0


class TestAutoscaler:
    def test_scales_up_after_sustained_pressure(self):
        scaler = Autoscaler(1, 4, up_after=2, down_after=4)
        assert scaler.observe(queued=3, running=1) == 1
        assert scaler.observe(queued=3, running=1) == 2  # second strike
        assert scaler.observe(queued=3, running=2) == 2
        assert scaler.observe(queued=3, running=2) == 3

    def test_scales_down_only_when_idle_long_enough(self):
        scaler = Autoscaler(1, 4, up_after=1, down_after=3)
        scaler.observe(queued=5, running=1)  # -> 2
        assert scaler.current == 2
        assert scaler.observe(queued=0, running=0) == 2
        assert scaler.observe(queued=0, running=0) == 2
        assert scaler.observe(queued=0, running=0) == 1  # third strike

    def test_mixed_signal_resets_hysteresis(self):
        scaler = Autoscaler(1, 4, up_after=2, down_after=2)
        scaler.observe(queued=3, running=1)
        scaler.observe(queued=0, running=1)  # busy but empty queue: reset
        assert scaler.observe(queued=3, running=1) == 1  # streak restarted
        assert scaler.observe(queued=3, running=1) == 2

    def test_respects_bounds(self):
        scaler = Autoscaler(2, 2)
        for _ in range(20):
            scaler.observe(queued=10, running=2)
        assert scaler.current == 2
        with pytest.raises(ValueError):
            Autoscaler(3, 2)


class TestLatencyWindow:
    def test_percentiles(self):
        window = LatencyWindow(window=100)
        for value in range(1, 101):  # 0.01..1.00
            window.add(value / 100)
        assert window.percentile(50) == pytest.approx(0.50)
        assert window.percentile(99) == pytest.approx(0.99)
        assert window.count == 100

    def test_empty_window(self):
        window = LatencyWindow()
        assert window.percentile(50) is None
        assert window.snapshot()["p99_s"] is None

    def test_window_is_bounded(self):
        window = LatencyWindow(window=10)
        for value in range(1000):
            window.add(float(value))
        assert window.percentile(50) >= 990  # only recent samples remain
        assert window.count == 1000
