"""End-to-end tests for the sweep server (repro.harness.server) and its
blocking client (repro.harness.client).

Most tests run the server on a background thread inside this process
(fast, deterministic, no subprocess plumbing); the SIGTERM drain test
spawns a real ``cli serve`` process and kills it the way an operator
would.
"""

import json
import os
import random
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
from repro.harness.server import (MAX_PLANS, expand_grid,
                                  render_grid_table)

GRID = {"kernels": ["queue"], "points": ["dsre", "aggressive"],
        "fast": True}


class ServerHarness:
    """One in-process server on a background thread."""

    def __init__(self, tmp_path, **overrides):
        overrides.setdefault("cache_dir", str(tmp_path / "cache"))
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


def hold_pool(server, fail_after=None):
    """Hold every chunk ``server`` submits until the returned event is
    set.  With ``fail_after=n``, each pool stream then yields its first
    ``n`` chunks and raises ``RuntimeError("chunk lost")``."""
    stream, release = server.pool.stream, threading.Event()

    def held(fn, tasks, labels=None):
        assert release.wait(60), "the test never released the pool"
        results = stream(fn, tasks, labels)
        if fail_after is None:
            yield from results
            return
        for _ in range(fail_after):
            yield next(results)
        results.close()
        raise RuntimeError("chunk lost")

    server.pool.stream = held
    return release


def wait_for(condition, timeout=30.0):
    """Poll ``condition`` until it holds; fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def server_cells(harness) -> dict:
    return harness.client.metrics()["server"]["cells"]


def spy_stores(server) -> list:
    """Record the key of every record ``server``'s cache stores."""
    store, stored = server.cache.store, []

    def spy(key, record):
        stored.append(key)
        store(key, record)

    server.cache.store = spy
    return stored


class TestDedup:
    def test_identical_plans_share_execution(self, tmp_path):
        h = ServerHarness(tmp_path)
        release = hold_pool(h.server)
        try:
            first = h.client.submit(GRID)
            second = h.client.submit(GRID)
            # Whichever plan claims the cells first holds them in the
            # pool until the other has joined both.
            wait_for(lambda: server_cells(h)["dedup_inflight_hits"] == 2)
            release.set()
            status_1 = h.client.wait(first, timeout=120)
            status_2 = h.client.wait(second, timeout=120)
            server = h.client.metrics()["server"]
            cells = server["cells"]
            assert cells["requested"] == 4
            assert cells["executed"] == 2           # not 4
            assert cells["dedup_inflight_hits"] == 2
            assert (server["batches"], server["chunks"]) == (1, 1)
            plans = [status_1["metrics"], status_2["metrics"]]
            assert sum(m["dedup_inflight_hits"] for m in plans) == 2
            # Each plan's buckets partition its cells.
            for m in plans:
                assert (m["cells_executed"] + m["cells_elided"]
                        + m["cells_from_cache"] + m["dedup_inflight_hits"]
                        == m["cells"] == 2)
            # The executing plan's metrics hold its chunk's counters.
            (owner,) = [m for m in plans if m["cells_executed"]]
            assert owner["kernels_executed"] == 1
            assert (owner["golden_fresh_runs"]
                    + owner["golden_memo_hits"]) == 2
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
        # Two kernels, so two chunks: the pool yields the first chunk,
        # then the stream fails, and the plan fails.
        h = ServerHarness(tmp_path)
        release = hold_pool(h.server, fail_after=1)
        try:
            plan = h.client.submit({"kernels": ["queue", "vecsum"],
                                    "points": ["dsre", "aggressive"],
                                    "fast": True})
            # A running plan's cells are requested before any executes.
            wait_for(lambda: server_cells(h)["requested"] == 4)
            cells = server_cells(h)
            assert cells["executed"] == 0
            states = h.client.status(plan)["cell_states"]
            assert [c["state"] for c in states] == ["running"] * 4
            release.set()
            status = h.client.wait(plan, timeout=120)
            states = h.client.status(plan)["cell_states"]
            server = h.client.metrics()["server"]
        finally:
            h.stop()
        assert status["state"] == "failed"
        assert status["error"] == "RuntimeError: chunk lost"
        assert sorted(c["state"] for c in states) == [
            "done", "done", "failed", "failed"]
        cells = server["cells"]
        assert server["plans"]["failed"] == 1
        assert server["chunk_failures"] == 1
        assert (server["batches"], server["chunks"]) == (1, 2)
        assert cells["requested"] == 4
        # The chunk yielded before the failure is stored and counted;
        # the lost chunk is neither.
        assert (cells["executed"] + cells["elided"] + cells["from_cache"]
                + cells["dedup_inflight_hits"] == 2)
        assert len(ResultCache(h.server.cache.root).entries()) == 2

    def test_opposite_orders_share_each_cell(self, tmp_path):
        x = {"kernel": "queue", "point": "dsre"}
        y = {"kernel": "vecsum", "point": "dsre"}
        requests = [{"cells": [x, y]}, {"cells": [y, x]}]
        h = ServerHarness(tmp_path)
        release = hold_pool(h.server)
        try:
            plans = [h.client.submit(request) for request in requests]
            wait_for(lambda: server_cells(h)["dedup_inflight_hits"] == 2)
            release.set()
            states = [h.client.wait(plan, timeout=120)["state"]
                      for plan in plans]
            tables = [h.client.table(plan) for plan in plans]
            cells = server_cells(h)
        finally:
            h.stop()
        assert states == ["done", "done"]
        assert cells["requested"] == 4
        assert cells["executed"] + cells["elided"] == 2
        assert cells["dedup_inflight_hits"] == 2
        for request, table in zip(requests, tables):
            assert table == render_grid_table(
                ParallelRunner(jobs=1).run_plan(expand_grid(request)))

    @pytest.mark.parametrize("fault", ["chunk", "store"])
    def test_a_joiner_fails_with_its_owners_error(self, tmp_path, fault):
        h = ServerHarness(tmp_path)
        if fault == "chunk":
            release = hold_pool(h.server, fail_after=0)
            error = "RuntimeError: chunk lost"
        else:
            release = hold_pool(h.server)
            error = "OSError: disk full"

            def store(key, record):
                raise OSError("disk full")

            h.server.cache.store = store
        try:
            owner = h.client.submit(GRID)
            wait_for(lambda: server_cells(h)["requested"] == 2)
            joiner = h.client.submit(GRID)
            wait_for(lambda: server_cells(h)["dedup_inflight_hits"] == 2)
            release.set()
            statuses = [h.client.wait(plan, timeout=120)
                        for plan in (owner, joiner)]
            joiner_states = h.client.status(joiner)["cell_states"]
            server = h.client.metrics()["server"]
        finally:
            h.stop()
        assert [s["state"] for s in statuses] == ["failed", "failed"]
        assert [s["error"] for s in statuses] == [error] * 2
        assert [c["state"] for c in joiner_states] == ["failed"] * 2
        assert server["plans"]["failed"] == 2
        assert server["chunk_failures"] == (fault == "chunk")
        assert h.server._claims == {}

    def test_each_executed_record_is_stored_once(self, tmp_path):
        # The first plan asks for one cell twice, so it joins its own
        # claim; the second joins both of the first plan's keys.
        x = {"kernel": "queue", "point": "dsre"}
        y = {"kernel": "vecsum", "point": "aggressive"}
        requests = [{"cells": [x, x, y]}, {"cells": [y, x]}]
        h = ServerHarness(tmp_path)
        stored = spy_stores(h.server)
        release = hold_pool(h.server)
        try:
            first = h.client.submit(requests[0])
            wait_for(lambda: server_cells(h)["requested"] == 3)
            second = h.client.submit(requests[1])
            wait_for(lambda: server_cells(h)["dedup_inflight_hits"] == 3)
            release.set()
            states = [h.client.wait(plan, timeout=120)["state"]
                      for plan in (first, second)]
            tables = [h.client.table(plan) for plan in (first, second)]
            cells = server_cells(h)
        finally:
            h.stop()
        assert states == ["done", "done"]
        assert len(stored) == len(set(stored)) == 2
        assert h.server.cache.session.stored == 2
        assert cells["executed"] + cells["elided"] == 2
        assert (cells["executed"] + cells["elided"] + cells["from_cache"]
                + cells["dedup_inflight_hits"] == cells["requested"] == 5)
        for request, table in zip(requests, tables):
            assert table == render_grid_table(
                ParallelRunner(jobs=1).run_plan(expand_grid(request)))

    def test_a_plan_waiting_for_a_plan_thread_is_queued(self, tmp_path):
        # Every plan thread holds a plan in the pool (one owner, the rest
        # joined to it), so the last plan waits for a thread.
        cell = {"kernels": ["queue"], "points": ["dsre"]}
        h = ServerHarness(tmp_path)
        release = hold_pool(h.server)
        try:
            plans = [h.client.submit(cell) for _ in range(MAX_PLANS + 1)]
            wait_for(lambda: server_cells(h)["requested"] == MAX_PLANS)
            held = [h.client.status(plan) for plan in plans]
            release.set()
            ended = [h.client.wait(plan, timeout=120)["state"]
                     for plan in plans]
            cells = server_cells(h)
        finally:
            h.stop()
        assert [s["state"] for s in held] == (["running"] * MAX_PLANS
                                              + ["queued"])
        assert held[-1]["cells"] == {"total": 0}
        assert ended == ["done"] * (MAX_PLANS + 1)
        assert cells["executed"] + cells["elided"] == 1


class TestClaimTable:
    def test_claims_hold_under_thread_contention(self, tmp_path):
        """Sixteen threads claim, settle and join overlapping keys with
        a tiny switch interval: no key has two owners at once, every
        join gets its owner's record, and no count is lost."""
        server = SweepServer(ServerConfig(cache_dir=str(tmp_path)))
        keys = [f"{i:02x}" * 32 for i in range(8)]
        digests = ["d"] * len(keys)
        threads, rounds, width = 16, 100, 3
        held, held_lock, owned = set(), threading.Lock(), []
        errors = []

        def plan(seed):
            rng = random.Random(seed)
            try:
                for _ in range(rounds):
                    claims = {}
                    own, joined = server._claim(
                        claims, digests, keys,
                        rng.sample(range(len(keys)), width),
                        {"cells_from_cache": 0})
                    with held_lock:
                        for index in own:
                            assert keys[index] not in held
                            held.add(keys[index])
                        owned.append(len(own))
                    for index in own:
                        with held_lock:
                            held.discard(keys[index])
                        server._settle(keys[index],
                                       claims.pop(keys[index]),
                                       {"key": keys[index]})
                    for index, claim in joined:
                        assert claim.result(30) == {"key": keys[index]}
            except Exception as exc:        # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=plan, args=(seed,))
                       for seed in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
            server.pool.close()
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert server._claims == {}
        assert server.counters["cells_requested"] == \
            threads * rounds * len(keys)
        assert (sum(owned) + server.totals["dedup_inflight_hits"]
                == threads * rounds * width)
        assert server.counters["chunks"] == server.counters["batches"] \
            == sum(1 for n in owned if n)


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
             "--drain-linger", "0.1"],
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
            proc.stdout.close()
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
