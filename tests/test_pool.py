"""Tests for the persistent worker pool, kernel-affine chunking, and the
per-process golden memo (repro.harness.pool)."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.errors import SimulationError
from repro.harness import (ParallelRunner, PoolExhaustedError, ResultCache,
                           SweepPlan, WorkerPool, golden_for,
                           reset_golden_memo, run_cell_chunk)
from repro.harness import parallel, pool
from repro.harness.metrics import merge_session_metrics, session_shard_path
from repro.workloads import KERNELS


def two_kernel_plan():
    """2 kernels x 2 points: enough pending cells for the pooled path."""
    plan = SweepPlan()
    for inst in (KERNELS["queue"].build(12), KERNELS["vecsum"].build(16)):
        plan.add(inst, "dsre")
        plan.add(inst, "aggressive")
    return plan


def stats_of(results):
    return [r.stats.as_dict() for r in results]


# ----------------------------------------------------------------------
# Worker-death injection helpers (must be module-level: picklable).
# ----------------------------------------------------------------------

def _exit_once(task):
    """Kill the worker the first time, succeed on the retry."""
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value


def _always_exit(_task):
    os._exit(1)


def _boom(_task):
    raise ValueError("boom")


def _echo_pid(task):
    return (os.getpid(), task)


def _die_on(task):
    """Kill the worker on the task ``"die"``; echo every other task."""
    if task == "die":
        os._exit(1)
    return task


def _note_and_sleep(task):
    """Leave a file named after the task, then take a little while."""
    directory, i = task
    with open(os.path.join(directory, str(i)), "w"):
        pass
    time.sleep(0.05)
    return i


#: A pool owner that dies without shutting its pool down: it writes its
#: workers' pids to ``argv[1]`` and calls ``os._exit``.
OWNER_SCRIPT = textwrap.dedent("""
    import json, multiprocessing, os, sys
    from repro.harness.pool import WorkerPool

    pool = WorkerPool(2)
    pool.run(abs, [-1, -2, -3, -4])
    with open(sys.argv[1], "w") as fh:
        json.dump([p.pid for p in multiprocessing.active_children()], fh)
    os._exit(9)
""")


def _running(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TestWorkerPool:
    def test_results_in_task_order(self):
        with WorkerPool(jobs=2) as pool:
            out = pool.run(_echo_pid, list(range(5)))
        assert [task for _, task in out] == list(range(5))

    def test_executor_reused_across_runs(self):
        with WorkerPool(jobs=1) as pool:
            first = pool.run(_echo_pid, [1, 2])
            second = pool.run(_echo_pid, [3])
            assert pool.spinups == 1
            assert pool.tasks_run == 3
            # Same worker process served both runs.
            assert {pid for pid, _ in first} == {pid for pid, _ in second}

    def test_dead_worker_recovered(self, tmp_path):
        marker = str(tmp_path / "died-once")
        with WorkerPool(jobs=1) as pool:
            out = pool.run(_exit_once, [(marker, "ok")])
            assert out == ["ok"]
            assert pool.broken_recoveries == 1
            assert pool.spinups == 2          # original + respawn

    def test_respawn_budget_exhausted(self):
        from concurrent.futures.process import BrokenProcessPool
        with WorkerPool(jobs=1, max_respawns=1) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.run(_always_exit, [0])
        assert pool.spinups == 2              # original + 1 respawn

    def test_exhaustion_names_lost_labels(self):
        """The typed error must say exactly which tasks were lost."""
        with WorkerPool(jobs=1, max_respawns=0) as pool:
            with pytest.raises(PoolExhaustedError) as info:
                pool.run(_always_exit, ["a", "b"],
                         labels=["digest-a", "digest-b"])
        assert info.value.unfinished == ["digest-a", "digest-b"]
        assert "digest-a" in str(info.value)

    def test_exhaustion_defaults_to_indices(self):
        with WorkerPool(jobs=1, max_respawns=0) as pool:
            with pytest.raises(PoolExhaustedError) as info:
                pool.run(_always_exit, ["only"])
        assert info.value.unfinished == [0]

    def test_mismatched_labels_rejected(self):
        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ValueError):
                pool.run(_echo_pid, [1, 2], labels=["just-one"])

    def test_task_exception_propagates(self):
        with WorkerPool(jobs=1) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.run(_boom, [0])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)

    def test_workers_exit_when_the_owner_dies(self, tmp_path):
        """An owner killed without shutting its pool down leaves no
        worker behind: each one notices its parent is gone and exits."""
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        pids_path = tmp_path / "workers.json"
        owner = subprocess.Popen(
            [sys.executable, "-c", OWNER_SCRIPT, str(pids_path)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            assert owner.wait(timeout=60) == 9
            pids = json.loads(pids_path.read_text())
            assert pids
            # A worker polls its parent every _PARENT_POLL_S, but on a
            # loaded host its watcher thread may wait long for a turn.
            deadline = time.monotonic() + 30.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            _kill_group(owner.pid)


class TestStream:
    def test_every_task_once_in_submission_order(self):
        with WorkerPool(jobs=2) as pool:
            out = list(pool.stream(_echo_pid, list(range(7))))
            assert pool.tasks_run == 7
        assert [i for i, _ in out] == list(range(7))
        assert [task for _, (_, task) in out] == list(range(7))

    def test_worker_killed_mid_stream_is_resubmitted(self, tmp_path):
        done = str(tmp_path / "already-died")
        with open(done, "w"):
            pass
        fresh = str(tmp_path / "dies-once")
        tasks = [(done, "a"), (fresh, "b"), (done, "c")]
        with WorkerPool(jobs=1) as pool:
            stream = pool.stream(_exit_once, tasks)
            assert next(stream) == (0, "a")
            assert list(stream) == [(1, "b"), (2, "c")]
            assert pool.broken_recoveries == 1

    def test_exhaustion_after_earlier_results_were_yielded(self):
        yielded = []
        with WorkerPool(jobs=1, max_respawns=0) as pool:
            with pytest.raises(PoolExhaustedError) as info:
                for item in pool.stream(_die_on, ["a", "die", "c"],
                                        labels=["la", "ldie", "lc"]):
                    yielded.append(item)
        assert yielded == [(0, "a")]
        assert info.value.unfinished == ["ldie", "lc"]

    def test_closing_early_cancels_the_rest(self, tmp_path):
        tasks = [(str(tmp_path), i) for i in range(12)]
        with WorkerPool(jobs=1) as pool:
            stream = pool.stream(_note_and_sleep, tasks)
            assert next(stream) == (0, 0)
            stream.close()
            # One worker runs tasks in submission order, so the tasks
            # that had started finish before this run's.
            out = pool.run(_echo_pid, [10, 11, 12])
            assert [task for _, task in out] == [10, 11, 12]
            assert pool.spinups == 1 and pool.broken_recoveries == 0
        assert len(os.listdir(tmp_path)) < len(tasks)


class TestGoldenMemo:
    def test_fresh_then_hit(self):
        reset_golden_memo()
        inst = KERNELS["queue"].build(12)
        golden, fresh = golden_for(inst)
        assert fresh
        again, fresh2 = golden_for(inst)
        assert not fresh2
        assert again is golden                # identical objects, no rerun

    def test_mutation_misses(self):
        reset_golden_memo()
        inst = KERNELS["queue"].build(12)
        golden_for(inst)
        inst.initial_regs[9] = 42             # different identity digest
        _, fresh = golden_for(inst)
        assert fresh

    def test_reset_forces_a_fresh_run(self):
        inst = KERNELS["queue"].build(12)
        golden_for(inst)
        reset_golden_memo()
        _, fresh = golden_for(inst)
        assert fresh

    def test_cap_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(pool, "_GOLDEN_MEMO_CAP", 2)
        reset_golden_memo()
        a, b, c = (KERNELS["queue"].build(12) for _ in range(3))
        b.initial_regs[9] = 41
        c.initial_regs[9] = 42
        golden_for(a)
        golden_for(b)
        assert not golden_for(a)[1]           # a is now the most recent
        golden_for(c)                         # evicts b, not a
        assert not golden_for(a)[1]
        assert golden_for(b)[1]

    def test_chunk_rejects_mixed_kernels(self):
        plan = two_kernel_plan()
        chunk = [(i, cell) for i, cell in enumerate(plan.cells)]
        with pytest.raises(SimulationError, match="identity digests"):
            run_cell_chunk(chunk)

    def test_chunk_shares_one_golden_run(self):
        reset_golden_memo()
        plan = SweepPlan()
        inst = KERNELS["queue"].build(12)
        # Three points that all genuinely simulate (conservative defers
        # on queue's windows, so cross-point elision forwards nothing):
        # the chunk must still derive the golden trace exactly once.
        for point in ("dsre", "aggressive", "conservative"):
            plan.add(inst, point)
        payload = run_cell_chunk(list(enumerate(plan.cells)))
        assert payload["counts"]["golden_fresh_runs"] == 1
        assert payload["counts"]["golden_memo_hits"] == 2
        assert payload["counts"]["cells_elided"] == 0
        assert len(payload["records"]) == 3


class TestRunnerPooling:
    def test_pool_reused_across_plans(self):
        # Inject the pool so the pooled path is exercised even on a
        # single-core host (where the core clamp would otherwise keep
        # everything in-process).
        reset_golden_memo()
        with WorkerPool(jobs=2) as pool:
            runner = ParallelRunner(jobs=2, pool=pool)
            first = runner.run_plan(two_kernel_plan())
            m1 = runner.last_metrics
            assert m1.pooled
            assert m1.pool_spinups == 1
            assert m1.pool_reuses == 0
            # Cold memo + kernel-affine chunks: each kernel's golden
            # trace was paid at most once across the whole plan.
            assert m1.golden_runs_per_kernel <= 1.0

            second = runner.run_plan(two_kernel_plan())
            m2 = runner.last_metrics
            assert m2.pooled
            assert m2.pool_spinups == 1       # same executor, no respawn
            assert m2.pool_reuses == 1
            assert stats_of(first) == stats_of(second)

    def test_jobs1_parity_with_pooled(self):
        serial = ParallelRunner(jobs=1)
        a = serial.run_plan(two_kernel_plan())
        assert not serial.last_metrics.pooled
        with WorkerPool(jobs=2) as pool:
            runner = ParallelRunner(jobs=2, pool=pool)
            b = runner.run_plan(two_kernel_plan())
            assert runner.last_metrics.pooled
        assert stats_of(a) == stats_of(b)
        assert [r.arch_digest for r in a] == [r.arch_digest for r in b]
        assert [r.label for r in a] == [r.label for r in b]

    def test_small_remainder_stays_in_process(self, monkeypatch):
        # Pin the schedulable core count: on a host with fewer than four
        # cores, jobs=4 would clamp and two cells would fill the pool.
        monkeypatch.setattr(parallel, "_available_cores", lambda: 4)
        runner = ParallelRunner(jobs=4)
        assert runner.effective_jobs == 4
        plan = SweepPlan()
        plan.add(KERNELS["queue"].build(12), "dsre")
        plan.add(KERNELS["vecsum"].build(16), "dsre")
        runner.run_plan(plan)                 # 2 pending < 4 jobs
        assert runner.pool is None            # no pool ever spun up
        assert not runner.last_metrics.pooled

    def test_single_kernel_stays_in_process(self):
        runner = ParallelRunner(jobs=2)
        plan = SweepPlan()
        inst = KERNELS["queue"].build(12)
        for point in ("dsre", "aggressive", "storeset", "hybrid"):
            plan.add(inst, point)
        runner.run_plan(plan)                 # 4 pending, but 1 kernel
        assert runner.pool is None
        assert not runner.last_metrics.pooled

    def test_fully_cached_plan_spawns_no_pool(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        ParallelRunner(jobs=1, cache=cache).run_plan(two_kernel_plan())
        warm = ParallelRunner(jobs=2, cache=cache)
        results = warm.run_plan(two_kernel_plan())
        assert all(r.from_cache for r in results)
        assert warm.pool is None
        m = warm.last_metrics
        assert m.cells_executed == 0 and m.cells_from_cache == len(results)
        assert m.kernels_executed == 0

    def test_session_metrics_shard_written(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run_plan(two_kernel_plan())
        # Per-process shard: session.<pid>.json, not a shared file.
        path = session_shard_path(cache.root)
        assert str(os.getpid()) in os.path.basename(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["plans_run"] == 1
        assert payload["cells_executed"] == 4
        assert payload["golden_runs_per_kernel"] <= 1.0
        assert payload["last_plan"]["cells"] == 4
        # The merged view reads the shard back.
        merged = merge_session_metrics(cache.root)
        assert merged["plans_run"] == 1
        assert merged["shards"] == 1
        # The metrics shard must be invisible to the cache proper.
        assert cache.stats()["entries"] == 4

    def test_runner_labels_chunks_with_digests(self):
        """The pooled path hands chunk identity digests to the pool, so
        exhaustion errors can name the lost kernels."""
        captured = {}

        class _SpyPool(WorkerPool):
            def stream(self, fn, tasks, labels=None):
                captured["labels"] = list(labels or [])
                return super().stream(fn, tasks, labels=labels)

        plan = two_kernel_plan()
        expected = {cell.instance.identity_digest() for cell in plan}
        with _SpyPool(jobs=2) as pool:
            runner = ParallelRunner(jobs=2, pool=pool)
            runner.run_plan(plan)
        assert set(captured["labels"]) == expected
        assert len(captured["labels"]) == 2

    def test_summary_mentions_redundancy(self):
        reset_golden_memo()
        runner = ParallelRunner(jobs=1)
        runner.run_plan(two_kernel_plan())
        text = runner.summary()
        assert "golden runs/kernel 1.00" in text
        assert "cells/s" in text
