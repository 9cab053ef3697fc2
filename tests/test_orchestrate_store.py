"""ResultStore cache keying and persistence semantics.

The cache contract: *every* result-determining field of a job spec —
including each SimConfig value and the seed — participates in the
content hash, while presentation-only fields (``tag``) do not.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.orchestrate import CACHE_VERSION, Job, JobResult, ResultStore, sim_config_dict
from repro.sim.config import SimConfig


def make_job(**overrides) -> Job:
    base = dict(
        kind="sweep",
        topology="sf:q=5,p=floor",
        routing="ugal",
        routing_kwargs={"cost_mode": "sf", "c_sf": 1.0, "num_indirect": 4},
        pattern="worstcase",
        pattern_kwargs={"seed": 3},
        load=0.4,
        seed=7,
        warmup_ns=200.0,
        measure_ns=600.0,
        arrival="poisson",
        config=sim_config_dict(SimConfig()),
    )
    base.update(overrides)
    return Job(**base)


class TestContentHash:
    def test_identical_specs_share_a_hash(self):
        assert make_job().content_hash() == make_job().content_hash()

    def test_every_scalar_field_changes_the_hash(self):
        base = make_job().content_hash()
        variants = [
            make_job(kind="exchange"),
            make_job(topology="sf:q=5,p=ceil"),
            make_job(routing="min", routing_kwargs={}),
            make_job(pattern="uniform", pattern_kwargs={}),
            make_job(load=0.5),
            make_job(seed=8),
            make_job(warmup_ns=300.0),
            make_job(measure_ns=700.0),
            make_job(arrival="bernoulli"),
            make_job(params={"extra": 1}),
        ]
        hashes = [job.content_hash() for job in variants]
        assert base not in hashes
        assert len(set(hashes)) == len(hashes)

    def test_routing_kwargs_values_change_the_hash(self):
        base = make_job().content_hash()
        tweaked = make_job(
            routing_kwargs={"cost_mode": "sf", "c_sf": 2.0, "num_indirect": 4}
        )
        assert tweaked.content_hash() != base

    def test_pattern_seed_changes_the_hash(self):
        assert make_job(pattern_kwargs={"seed": 4}).content_hash() != make_job().content_hash()

    def test_every_sim_config_field_changes_the_hash(self):
        base = make_job().content_hash()
        defaults = SimConfig()
        bumped = {
            "link_bandwidth_gbps": 200.0,
            "link_latency_ns": 60.0,
            "switch_latency_ns": 120.0,
            "buffer_bytes_per_port": 50_000,
            "packet_bytes": 512,
            "check": True,
            "backend": "kernel",
            "faults": ["fail@600:0-1"],
            "fault_policy": "drop",
        }
        for field in dataclasses.fields(defaults):
            config = sim_config_dict(defaults)
            config[field.name] = bumped[field.name]
            assert make_job(config=config).content_hash() != base, field.name

    def test_tag_is_presentation_only(self):
        assert make_job(tag="fig6/sf").content_hash() == make_job(tag="other").content_hash()

    def test_roundtrip_through_dict(self):
        job = make_job(tag="x")
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.content_hash() == job.content_hash()


class TestResultStore:
    def result(self) -> JobResult:
        return JobResult(
            kind="sweep",
            payload={
                "load": 0.4, "throughput": 0.39, "mean_latency_ns": 512.0,
                "p99_latency_ns": 900.0, "ejected_packets": 123,
                "indirect_fraction": 0.25,
            },
            events=10_000,
            duration_s=1.5,
            worker_pid=4242,
        )

    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        job = make_job()
        assert store.get(job) is None
        store.put(job, self.result())
        hit = store.get(job)
        assert hit is not None
        assert hit.cached is True
        assert hit.payload == self.result().payload
        assert hit.sweep_point().throughput == pytest.approx(0.39)
        assert len(store) == 1

    def test_changed_spec_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_job(), self.result())
        assert store.get(make_job(seed=8)) is None
        assert store.get(make_job(load=0.5)) is None
        config = sim_config_dict(SimConfig(packet_bytes=512))
        assert store.get(make_job(config=config)) is None

    def test_relabel_still_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_job(tag="first"), self.result())
        assert store.get(make_job(tag="second")) is not None

    def test_invalidate(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        store.put(job, self.result())
        assert store.invalidate(job) is True
        assert store.get(job) is None
        assert store.invalidate(job) is False

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        path = store.put(job, self.result())
        path.write_text("{ not json")
        assert store.get(job) is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        path = store.put(job, self.result())
        entry = json.loads(path.read_text())
        entry["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(entry))
        assert store.get(job) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_job(), self.result())
        store.put(make_job(seed=8), self.result())
        assert store.clear() == 2
        assert len(store) == 0


class TestHousekeeping:
    """Shard/tmp cleanup and age-based pruning (the server's GC path)."""

    def result(self, value: float = 0.39) -> JobResult:
        return JobResult(kind="sweep", payload={"throughput": value})

    def test_invalidate_removes_empty_shard_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        path = store.put(job, self.result())
        shard = path.parent
        assert store.invalidate(job) is True
        assert not shard.exists()

    def test_invalidate_keeps_shard_with_other_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        path = store.put(job, self.result())
        # Plant a sibling entry in the same shard directory.
        sibling = path.parent / ("f" * 64 + ".json")
        sibling.write_text("{}")
        store.invalidate(job)
        assert path.parent.exists()

    def test_clear_sweeps_orphaned_tmp_files_and_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(make_job(), self.result())
        orphan = path.parent / "writer-died.tmp"
        orphan.write_text("partial")
        assert store.clear() == 1
        assert not orphan.exists()
        assert not path.parent.exists()
        assert list(tmp_path.glob("??")) == []

    def test_prune_drops_only_entries_past_cutoff(self, tmp_path):
        store = ResultStore(tmp_path)
        old_job, new_job = make_job(), make_job(seed=99)
        old_path = store.put(old_job, self.result())
        store.put(new_job, self.result())
        # Backdate the old entry's created stamp by a day.
        entry = json.loads(old_path.read_text())
        entry["created"] = time.time() - 86_400
        old_path.write_text(json.dumps(entry))

        assert store.prune(max_age_s=3600) == 1
        assert store.get(old_job) is None
        assert store.get(new_job) is not None
        assert not old_path.parent.exists() or any(old_path.parent.iterdir())

    def test_prune_uses_mtime_for_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(make_job(), self.result())
        path.write_text("{ not json")
        ancient = time.time() - 86_400
        import os

        os.utime(path, (ancient, ancient))
        assert store.prune(max_age_s=3600) == 1

    def test_prune_spares_fresh_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(make_job(), self.result())
        fresh_tmp = path.parent / "inflight.tmp"
        fresh_tmp.write_text("being written right now")
        assert store.prune(max_age_s=3600) == 0
        assert fresh_tmp.exists()  # younger than the cutoff: a live writer


class TestConcurrency:
    """Two writers to the same key plus readers mid-replace: the atomic
    temp-file + rename protocol means a reader sees one complete entry
    or a miss — never a torn file."""

    def make_result(self, value: float) -> JobResult:
        return JobResult(kind="sweep", payload={"throughput": value})

    def test_concurrent_writers_and_readers_never_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        valid = {0.1, 0.2}
        errors = []
        stop = threading.Event()

        def writer(value: float):
            while not stop.is_set():
                try:
                    store.put(job, self.make_result(value))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(f"writer: {exc!r}")
                    return

        def reader():
            while not stop.is_set():
                try:
                    hit = store.get(job)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(f"reader: {exc!r}")
                    return
                if hit is not None and hit.payload["throughput"] not in valid:
                    errors.append(f"torn read: {hit.payload}")
                    return

        threads = [
            threading.Thread(target=writer, args=(0.1,)),
            threading.Thread(target=writer, args=(0.2,)),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
        # The survivor is one of the two complete writes.
        final = store.get(job)
        assert final is not None
        assert final.payload["throughput"] in valid
        # No writer debris left behind.
        assert list(tmp_path.glob("??/*.tmp")) == []

    def test_put_survives_concurrent_shard_removal(self, tmp_path):
        store = ResultStore(tmp_path)
        job = make_job()
        errors = []
        stop = threading.Event()

        def churn():
            # invalidate() rmdirs the shard when it empties; put() must
            # recreate it rather than crash on the race.
            while not stop.is_set():
                store.invalidate(job)

        def write():
            while not stop.is_set():
                try:
                    store.put(job, self.make_result(0.5))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(repr(exc))
                    return

        threads = [threading.Thread(target=churn), threading.Thread(target=write)]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []
