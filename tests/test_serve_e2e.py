"""End-to-end service tests over a real socket, in process.

The app runs on a background thread with the inline (serial) scheduler
so no child processes fork; probe jobs keep things fast, and one real
sweep job pins the served payload to the serial-path golden.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.orchestrate.job import Job, run_job
from repro.orchestrate.store import ResultStore
from repro.serve.server import ServeApp, default_scheduler_factory
from repro.serve.tenants import TenantQuota

SIM_JOB = {
    "kind": "sweep",
    "topology": "sf:q=5,p=floor",
    "routing": "min",
    "pattern": "uniform",
    "load": 0.3,
    "seed": 0,
    "warmup_ns": 300.0,
    "measure_ns": 1200.0,
}


def probe(value: int = 0, seconds: float = 0.0) -> dict:
    params = {"value": value}
    if seconds:
        params.update(behavior="sleep", seconds=seconds)
    return {"kind": "probe", "params": params}


class LiveServer:
    """ServeApp on a background thread, plus a tiny HTTP client."""

    def __init__(self, tmp_path, max_queued=8, max_running=2, max_workers=2):
        self.store = ResultStore(tmp_path / "cache")
        self.executions = []  # one entry per scheduler instantiation
        base = default_scheduler_factory(inline=True)

        def counting_factory():
            self.executions.append(1)
            return base()

        self.app = ServeApp(
            store=self.store,
            spool_dir=tmp_path / "spool",
            quota=TenantQuota(max_queued=max_queued, max_running=max_running),
            min_workers=1,
            max_workers=max_workers,
            scheduler_factory=counting_factory,
            autoscale_interval_s=0.05,
            tail_interval_s=0.02,
        )
        self.port = None
        self._ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.app.run("127.0.0.1", 0, ready=self._on_ready)),
            daemon=True,
        )

    def _on_ready(self, host, port):
        self.port = port
        self._ready.set()

    def start(self):
        self.thread.start()
        assert self._ready.wait(10), "server did not come up"
        return self

    def drain(self, timeout=20):
        self.app._loop.call_soon_threadsafe(self.app.begin_drain)
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "server did not drain in time"

    def stop(self):
        if self.thread.is_alive():
            # Force-stop: second begin_drain call shuts down immediately.
            for _ in range(2):
                with contextlib.suppress(Exception):
                    self.app._loop.call_soon_threadsafe(self.app.begin_drain)
            self.thread.join(timeout=10)

    # -- client ------------------------------------------------------------

    def req(self, method, path, body=None, tenant=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        headers = {"X-Tenant": tenant} if tenant else {}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        headers_out = dict(resp.getheaders())
        conn.close()
        return resp.status, json.loads(data) if data else None, headers_out

    def submit(self, body, tenant="t1"):
        status, record, _ = self.req("POST", "/v1/jobs", body, tenant=tenant)
        assert status in (200, 202), (status, record)
        return record

    def wait_done(self, record_id, timeout=30):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _s, record, _h = self.req("GET", f"/v1/jobs/{record_id}")
            if record["status"] in ("done", "failed"):
                return record
            time.sleep(0.05)
        raise AssertionError(f"{record_id} did not finish within {timeout}s")

    def stream_events(self, record_id, timeout=30):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        conn.request("GET", f"/v1/jobs/{record_id}/events")
        resp = conn.getresponse()
        events = []
        for raw in resp:
            if not raw.strip():
                continue
            events.append(json.loads(raw))
            if events[-1].get("type") == "record_done":
                break
        conn.close()
        return events


@pytest.fixture
def server(tmp_path):
    live = LiveServer(tmp_path).start()
    yield live
    live.stop()


class TestLifecycle:
    def test_submit_poll_cache(self, server):
        record = server.submit(probe(41))
        assert record["status"] in ("queued", "running")
        done = server.wait_done(record["id"])
        assert done["status"] == "done"
        assert done["result"]["payload"]["value"] == 41
        assert len(server.executions) == 1

        # Identical resubmission after completion: served from the store,
        # terminal immediately, no new execution.
        status, again, _ = server.req("POST", "/v1/jobs", probe(41), tenant="t2")
        assert status == 200
        assert again["cached"] is True
        assert again["status"] == "done"
        assert again["result"]["payload"]["value"] == 41
        assert len(server.executions) == 1

    def test_concurrent_identical_posts_execute_once(self, server):
        job = probe(7, seconds=0.4)
        records, barrier = [None, None], threading.Barrier(2)

        def post(slot):
            barrier.wait()
            records[slot] = server.submit(job, tenant=f"client{slot}")

        threads = [threading.Thread(target=post, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        assert all(records)
        assert sum(1 for r in records if r["coalesced"]) == 1
        finished = [server.wait_done(r["id"]) for r in records]
        assert all(r["status"] == "done" for r in finished)
        payloads = [r["result"]["payload"] for r in finished]
        assert payloads[0] == payloads[1]
        assert len(server.executions) == 1  # the tentpole invariant

        _s, stats, _h = server.req("GET", "/v1/stats")
        assert stats["metrics"]["coalesced"] == 1
        assert stats["metrics"]["misses"] == 1

    def test_sweep_result_matches_serial_golden(self, server):
        record = server.wait_done(server.submit(SIM_JOB)["id"], timeout=120)
        assert record["status"] == "done"
        golden = run_job(Job.from_dict(dict(SIM_JOB))).payload
        assert record["result"]["payload"] == golden

    def test_campaign_list_submission(self, server):
        body = [probe(1), probe(2), probe(1)]  # third coalesces or caches
        status, resp, _ = server.req("POST", "/v1/jobs", body, tenant="camp")
        assert status == 200
        assert resp["accepted"] == 3
        assert resp["rejected"] == 0
        ids = [item["id"] for item in resp["jobs"]]
        results = [server.wait_done(record_id) for record_id in ids]
        assert [r["result"]["payload"]["value"] for r in results] == [1, 2, 1]
        assert len(server.executions) == 2  # duplicate never re-ran

    def test_failed_job_reports_error(self, server):
        record = server.submit({"kind": "probe", "params": {"behavior": "raise"}})
        done = server.wait_done(record["id"])
        assert done["status"] == "failed"
        assert done["error"]


class TestQuota:
    def test_over_quota_tenant_gets_429(self, tmp_path):
        server = LiveServer(tmp_path, max_queued=1, max_running=1).start()
        try:
            server.submit(probe(1, seconds=1.0), tenant="greedy")  # runs
            server.submit(probe(2, seconds=1.0), tenant="greedy")  # queues
            status, body, _ = server.req(
                "POST", "/v1/jobs", probe(3), tenant="greedy"
            )
            assert status == 429
            assert "quota" in body["error"]
            # Another tenant is unaffected.
            other = server.submit(probe(4), tenant="polite")
            assert server.wait_done(other["id"])["status"] == "done"
        finally:
            server.stop()


class TestEvents:
    def test_stream_carries_scheduler_telemetry(self, server):
        record = server.submit(probe(5, seconds=0.3))
        events = server.stream_events(record["id"])
        types = [e["type"] for e in events]
        assert types[0] == "record"
        assert "execution_start" in types
        assert "job_done" in types
        assert types[-1] == "record_done"
        assert events[-1]["status"] == "done"

    def test_stream_for_cached_record_terminates(self, server):
        first = server.submit(probe(6))
        server.wait_done(first["id"])
        cached = server.submit(probe(6), tenant="other")
        events = server.stream_events(cached["id"])
        assert events[-1]["type"] == "record_done"
        assert events[-1]["cached"] is True


class TestResultsAndErrors:
    def test_result_by_hash(self, server):
        record = server.submit(probe(8))
        done = server.wait_done(record["id"])
        status, entry, _ = server.req("GET", f"/v1/results/{done['hash']}")
        assert status == 200
        assert entry["result"]["payload"]["value"] == 8

    def test_unknown_hash_404_and_malformed_400(self, server):
        status, _, _ = server.req("GET", "/v1/results/" + "0" * 64)
        assert status == 404
        status, _, _ = server.req("GET", "/v1/results/not-a-hash")
        assert status == 400

    def test_unknown_record_404(self, server):
        status, body, _ = server.req("GET", "/v1/jobs/r-999999")
        assert status == 404
        assert "no such job" in body["error"]

    def test_wrong_method_405_with_allow(self, server):
        status, _, headers = server.req("DELETE", "/v1/jobs/r-000001")
        assert status == 405
        assert headers.get("Allow") == "GET"

    def test_bad_json_body_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/v1/jobs", body="{nope",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_invalid_tenant_400(self, server):
        status, body, _ = server.req(
            "POST", "/v1/jobs", probe(1), tenant="no spaces allowed"
        )
        assert status == 400

    def test_healthz_and_stats_shape(self, server):
        status, health, _ = server.req("GET", "/v1/healthz")
        assert (status, health["status"]) == (200, "ok")
        _s, stats, _h = server.req("GET", "/v1/stats")
        assert {"queue", "workers", "metrics", "draining", "restored"} <= set(stats)
        assert stats["workers"]["min"] == 1


class TestDrainRestart:
    def test_drain_persists_queue_and_restart_recovers(self, tmp_path):
        first = LiveServer(tmp_path, max_queued=8, max_running=1).start()
        try:
            running = first.submit(probe(1, seconds=1.0), tenant="a")
            queued = first.submit(probe(2, seconds=0.1), tenant="a")
            first.drain()
        finally:
            first.stop()
        assert first.app.saved_on_drain >= 1
        state_path = first.app.state_path
        assert state_path.exists()
        persisted = json.loads(state_path.read_text())
        record_ids = {
            r["id"] for entry in persisted["entries"] for r in entry["records"]
        }
        assert queued["id"] in record_ids

        # Same spool + store: the queued record comes back under its old
        # id and runs to completion.
        second = LiveServer(tmp_path, max_queued=8, max_running=1).start()
        try:
            _s, stats, _h = second.req("GET", "/v1/stats")
            assert stats["restored"] >= 1
            done = second.wait_done(queued["id"])
            assert done["status"] == "done"
            assert done["result"]["payload"]["value"] == 2
        finally:
            second.stop()

    def test_draining_server_rejects_submissions_with_503(self, tmp_path):
        server = LiveServer(tmp_path, max_running=1).start()
        try:
            server.submit(probe(1, seconds=1.5))
            # Drain only once the probe runs: a drain that wins the race
            # against its start requeues it, leaves nothing running and
            # stops the server before the POST below is answered.
            events = server.app.events_dir
            deadline = time.monotonic() + 10
            while not any('"type": "job_start"' in f.read_text()
                          for f in events.glob("*.jsonl")):
                assert time.monotonic() < deadline, "the probe never started"
                time.sleep(0.01)
            server.app._loop.call_soon_threadsafe(server.app.begin_drain)
            deadline = time.monotonic() + 5
            status = None
            while time.monotonic() < deadline and server.thread.is_alive():
                status, _, _ = server.req("POST", "/v1/jobs", probe(9))
                if status == 503:
                    break
                time.sleep(0.05)
            assert status == 503
            server.thread.join(timeout=20)
        finally:
            server.stop()
