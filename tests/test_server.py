"""End-to-end tests for the sweep server (repro.harness.server) and its
blocking client (repro.harness.client).

Most tests run the server on a background thread inside this process
(fast, deterministic, no subprocess plumbing); the SIGTERM drain test
spawns a real ``cli serve`` process and kills it the way an operator
would.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.harness import (ParallelRunner, ResultCache, ServerConfig,
                           ServerError, SweepClient, SweepServer)
from repro.harness.experiments import e1_main, e9_corpus_ordering
from repro.harness.metrics import session_shard_files, session_shard_path
from repro.harness.server import expand_grid, render_grid_table

GRID = {"kernels": ["queue"], "points": ["dsre", "aggressive"],
        "fast": True}


class ServerHarness:
    """One in-process server on a background thread."""

    def __init__(self, tmp_path, **overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
        overrides.setdefault("batch_window", 0.01)
        overrides.setdefault("drain_linger", 0.0)
        config = ServerConfig(port=0, jobs=2, **overrides)
        self.server = SweepServer(config)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"install_signals": False}, daemon=True)
        self.thread.start()
        assert self.server.wait_until_serving(30)
        self.client = SweepClient(port=self.server.port)

    def stop(self):
        self.server.request_shutdown()
        self.thread.join(30)
        assert not self.thread.is_alive()


@pytest.fixture
def harness(tmp_path):
    h = ServerHarness(tmp_path)
    yield h
    h.stop()


class TestHTTPBasics:
    def test_healthz(self, harness):
        payload = harness.client.healthz()
        assert payload["status"] == "ok"
        assert payload["port"] == harness.server.port

    def test_unknown_route_404(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client._json("GET", "/nope")
        assert info.value.status == 404

    def test_unknown_plan_404(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client.status("plan-999")
        assert info.value.status == 404

    def test_bad_plans_rejected(self, harness):
        for bad in ({}, {"kernels": ["no-such-kernel"]},
                    {"experiment": "e99"},
                    {"kernels": ["queue"], "points": ["warp-drive"]},
                    {"cells": []}):
            with pytest.raises(ServerError) as info:
                harness.client.submit(bad)
            assert info.value.status == 400
        # Nothing bad ever reached execution.
        metrics = harness.client.metrics()["server"]
        assert metrics["plans"]["submitted"] == 0


class TestPlanExecution:
    def test_grid_table_byte_identical(self, harness):
        served = harness.client.run(GRID, timeout=120)
        expected = render_grid_table(
            ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
        assert served == expected

    def test_experiment_table_byte_identical(self, harness):
        request = {"experiment": "e1", "fast": True,
                   "kernels": ["queue", "vecsum"]}
        served = harness.client.run(request, timeout=300)
        expected = e1_main(fast=True, runner=ParallelRunner(jobs=1),
                           kernels=["queue", "vecsum"]).render()
        assert served == expected

    def test_e9_corpus_experiment_byte_identical(self, harness):
        # The corpus experiment runs in server experiment mode and
        # renders the exact table an in-process run would.
        request = {"experiment": "e9", "fast": True, "sample": 2}
        served = harness.client.run(request, timeout=300)
        expected = e9_corpus_ordering(
            fast=True, sample=2, runner=ParallelRunner(jobs=1)).render()
        assert served == expected

    def test_e9_bad_sample_rejected(self, harness):
        with pytest.raises(ServerError) as info:
            harness.client.submit({"experiment": "e9", "sample": 0})
        assert info.value.status == 400

    def test_second_run_served_from_cache(self, harness):
        harness.client.run(GRID, timeout=120)
        plan_id = harness.client.submit(GRID)
        status = harness.client.wait(plan_id, timeout=120)
        assert status["metrics"]["cells_from_cache"] == 2
        assert status["metrics"]["cells_executed"] == 0
        assert status["cells"].get("cached") == 2

    def test_tenant_labels_the_plan(self, harness):
        client = SweepClient(port=harness.server.port, tenant="alice")
        plan_id = client.submit(GRID)
        assert client.wait(plan_id, timeout=120)["tenant"] == "alice"

    def test_status_reports_cells_and_digest(self, harness):
        plan_id = harness.client.submit(GRID)
        status = harness.client.wait(plan_id, timeout=120)
        assert status["state"] == "done"
        assert status["cells"]["total"] == 2
        assert len(status["table_digest"]) == 64
        table = harness.client.table(plan_id)
        states = harness.client.status(plan_id)["cell_states"]
        assert [c["state"] for c in states] == ["done", "done"]
        assert "queue @ dsre" in table


class TestDedup:
    def test_identical_plans_share_execution(self, tmp_path):
        # A wider batch window so both submissions land in one batch.
        h = ServerHarness(tmp_path, batch_window=0.1)
        try:
            first = h.client.submit(GRID)
            second = h.client.submit(GRID)
            status_1 = h.client.wait(first, timeout=120)
            status_2 = h.client.wait(second, timeout=120)
            server = h.client.metrics()["server"]
            cells = server["cells"]
            assert cells["requested"] == 4
            assert cells["executed"] == 2           # not 4
            assert cells["dedup_inflight_hits"] == 2
            plans = [status_1["metrics"], status_2["metrics"]]
            assert sum(m["dedup_inflight_hits"] for m in plans) == 2
            # Each plan's buckets partition its cells.
            for m in plans:
                assert (m["cells_executed"] + m["cells_elided"]
                        + m["cells_from_cache"] + m["dedup_inflight_hits"]
                        == m["cells"] == 2)
            assert h.client.table(first) == h.client.table(second)
            # The shared cells' work is counted once: the server's
            # totals equal the sums over the records it stored.
            records = []
            for path in ResultCache(h.server.cache.root).entries():
                with open(path) as fh:
                    records.append(json.load(fh))
            assert len(records) == 2
            assert not any(r.get("forwarded_from") for r in records)
            stats = [r["result"]["stats"] for r in records]
            assert server["work"]["fu_work_issued"] == sum(
                s["fu_work_issued"] for s in stats)
            assert server["specialize"]["hits"] == sum(
                s["specialize_hits"] for s in stats)
        finally:
            h.stop()
        # The drained server's shard agrees with its /metrics.
        with open(session_shard_path(h.server.cache.root)) as fh:
            assert json.load(fh)["cells_executed"] == cells["executed"]

    def test_running_and_failed_plans_are_counted(self, tmp_path):
        # Two kernels, so two chunks: the first chunk to reach the pool
        # fails, the other executes, and the plan fails.
        h = ServerHarness(tmp_path)
        run, release, lock, failed = (h.server.pool.run, threading.Event(),
                                      threading.Lock(), [])

        def run_or_fail(fn, tasks, labels=None):
            release.wait(60)
            with lock:
                fail = not failed
                failed.append(fail)
            if fail:
                raise RuntimeError("chunk lost")
            return run(fn, tasks, labels=labels)

        h.server.pool.run = run_or_fail
        try:
            plan = h.client.submit({"kernels": ["queue", "vecsum"],
                                    "points": ["dsre", "aggressive"],
                                    "fast": True})
            # A running plan's cells are requested before any executes.
            deadline = time.monotonic() + 30
            while (h.client.metrics()["server"]["cells"]["requested"] != 4
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            cells = h.client.metrics()["server"]["cells"]
            assert cells["requested"] == 4 and cells["executed"] == 0
            release.set()
            assert h.client.wait(plan, timeout=120)["state"] == "failed"
            deadline = time.monotonic() + 30
            while (len(failed) < 2 or h.server._work_tasks) \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            server = h.client.metrics()["server"]
        finally:
            h.stop()
        cells = server["cells"]
        assert server["plans"]["failed"] == 1
        assert server["chunk_failures"] == 1
        assert cells["requested"] == 4
        # The surviving chunk's cells count; the lost chunk's do not.
        assert (cells["executed"] + cells["elided"] + cells["from_cache"]
                + cells["dedup_inflight_hits"] == 2)


class TestDrain:
    def test_draining_refuses_new_plans(self, tmp_path):
        h = ServerHarness(tmp_path, drain_linger=5.0)
        h.server.request_shutdown()
        deadline = time.monotonic() + 5.0
        status = None
        while time.monotonic() < deadline and status != 503:
            try:
                h.client.submit(GRID)  # drain flag not visible yet
            except ServerError as exc:
                status = exc.status
            time.sleep(0.02)
        assert status == 503
        h.thread.join(30)
        assert not h.thread.is_alive()


class TestSigtermDrain:
    def test_cli_serve_drains_on_sigterm(self, tmp_path):
        """An operator-style run: spawn ``cli serve``, run a sweep over
        HTTP, SIGTERM it, and require a clean exit with no lost cells
        and persisted session metrics."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        cache_dir = str(tmp_path / "cache")
        port_file = str(tmp_path / "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--port-file", port_file,
             "--jobs", "1", "--cache-dir", cache_dir,
             "--batch-window", "0.01", "--drain-linger", "0.1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(port_file):
                assert proc.poll() is None, \
                    proc.stdout.read().decode()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            with open(port_file) as fh:
                port = int(fh.read())
            client = SweepClient(port=port)
            table = client.run(GRID, timeout=120)
            expected = render_grid_table(
                ParallelRunner(jobs=1).run_plan(expand_grid(GRID)))
            assert table == expected
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # The drain persisted the server's session shard.
        shards = session_shard_files(cache_dir)
        assert any(str(proc.pid) in os.path.basename(p) for p in shards)
        with open(session_shard_path_for(shards, proc.pid)) as fh:
            payload = json.load(fh)
        assert payload["plans_run"] == 1
        assert payload["cells_executed"] == 2


def session_shard_path_for(paths, pid):
    for path in paths:
        if str(pid) in os.path.basename(path):
            return path
    raise AssertionError(f"no shard for pid {pid} in {paths}")
