"""Resumable and shardable sweep regression tests.

Two guarantees from the resumable-sweep layer (repro.harness.journal +
ParallelRunner journaling):

* **Crash/resume** — a sweep killed mid-plan (a real subprocess dying
  with ``os._exit`` between cells) resumes with *zero re-executed
  cells*: the plan journal shows every cache key with at most one
  ``executed`` line across both runs, and the resumed table is
  byte-identical to a fresh-root run's.  This holds pooled too: a
  pooled plan admits each chunk's records while later chunks still
  run, so a sweep killed with one chunk still running keeps the
  chunks finished before it.
* **Sharding** — two shard fills of one plan (``--shard 0/2`` and
  ``1/2`` semantics via ``ResultCache(shard=...)``) partition the cells
  exactly; merging the two cache roots renders the same table as an
  unsharded run, from cache alone.
"""

import functools
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import repro
from repro.harness import parallel
from repro.harness.cache import ResultCache, _is_shard_dir
from repro.harness.experiments import corpus_plan, e9_corpus_ordering
from repro.harness.journal import PlanJournal, journals_under
from repro.harness.parallel import ParallelRunner
from repro.harness.pool import run_cell_chunk

#: The corpus plan both tests sweep: 2 programs x 6 points = 12 cells.
PLAN_ARGS = dict(fast=True, sample=2, seed=11)

#: Executed-record stores after which the child sweep process dies.
KILL_AFTER = 5

#: The directory holding the ``repro`` package, for child processes.
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

CHILD_SCRIPT = textwrap.dedent("""
    import os, sys
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import corpus_plan
    from repro.harness.parallel import ParallelRunner

    root, kills = sys.argv[1], int(sys.argv[2])

    class DyingCache(ResultCache):
        stores = 0
        def store(self, key, record):
            super().store(key, record)
            DyingCache.stores += 1
            if DyingCache.stores >= kills:
                os._exit(9)     # crash hard: no cleanup, no journal line

    plan, _ = corpus_plan(fast=True, sample=2, seed=11)
    runner = ParallelRunner(jobs=1, cache=DyingCache(root), journal=True)
    runner.run_plan(plan)
    os._exit(0)                 # unreachable when kills < len(plan)
""")


def _fresh_table() -> str:
    with ParallelRunner(jobs=1) as runner:
        return e9_corpus_ordering(runner=runner, **PLAN_ARGS).render()


def _plan_size() -> int:
    plan, _ = corpus_plan(**PLAN_ARGS)
    return len(list(plan))


class TestCrashResume:
    def test_killed_sweep_resumes_with_zero_reexecution(self, tmp_path):
        root = str(tmp_path / "cache")
        child = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT, root, str(KILL_AFTER)],
            env={**os.environ, "PYTHONPATH": SRC_ROOT},
            capture_output=True, text=True)
        assert child.returncode == 9, child.stderr

        # The crash landed between a cache store and its journal line:
        # the cache holds KILL_AFTER records, the journal one fewer.
        digests = journals_under(root)
        assert len(digests) == 1
        journal = PlanJournal(root, digests[0])
        assert journal.manifest() is not None
        before = journal.summary()
        assert before["executed_lines"] == KILL_AFTER - 1
        assert before["reexecuted_cells"] == 0

        # Resume: same plan, same cache root, journal appends.
        with ParallelRunner(jobs=1, cache=ResultCache(root),
                            journal=True) as runner:
            table = e9_corpus_ordering(runner=runner,
                                       **PLAN_ARGS).render()
        total = _plan_size()
        assert runner.totals["cells_from_cache"] == KILL_AFTER
        # Remaining cells were either simulated or served by cross-point
        # elision (a clean representative forwarded to its siblings) —
        # both count as completed work, neither re-executes cached cells.
        assert (runner.totals["cells_executed"] + runner.totals["cells_elided"]
                == total - KILL_AFTER)

        # Journal-verified: across both runs no cell executed twice.
        after = journal.summary()
        assert after["completed"] == total
        assert after["reexecuted_cells"] == 0
        assert all(n == 1
                   for n in journal.executed_counts().values())
        assert (after["executed_lines"] + after["forwarded_lines"]
                == total - 1)           # the torn cell's line is missing,
        # but its *work* was cached, never redone.

        # And the rendered table is byte-identical to a fresh run.
        assert table == _fresh_table()


# ----------------------------------------------------------------------
# Pooled plans: admission while the pool runs, and crash/resume
# ----------------------------------------------------------------------

#: 3 programs x 6 points = 18 cells in three six-cell chunks; the last
#: program's chunk is submitted last.
POOLED_ARGS = dict(fast=True, sample=3, seed=11)

#: Seconds a held chunk waits for the first store before giving up.
HOLD_S = 30.0

#: Stores after which the pooled child dies: the first chunk's six and
#: two of the second's.
POOLED_KILL_AFTER = 8

#: Seconds the pooled child may take before the test gives up on it.
CHILD_TIMEOUT_S = 60.0

#: The root holding the ``tests`` package, for the child's imports.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _held_chunk(marker, held_index, outcome, chunk):
    """``run_cell_chunk``, except that the chunk holding plan index
    ``held_index`` first waits for ``marker`` to appear, at most
    :data:`HOLD_S` seconds, and writes to ``outcome`` what ended the
    wait (``"marker"`` or ``"timeout"``)."""
    if any(index == held_index for index, _ in chunk):
        deadline = time.monotonic() + HOLD_S
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        with open(outcome, "w") as fh:
            fh.write("marker" if os.path.exists(marker) else "timeout")
    return run_cell_chunk(chunk)


def _held_until_orphaned(held_index, chunk):
    """``run_cell_chunk``, except that the chunk holding plan index
    ``held_index`` never finishes: its worker waits until the process
    that owns the pool is gone, then exits."""
    if any(index == held_index for index, _ in chunk):
        parent = os.getppid()
        while os.getppid() == parent:
            time.sleep(0.05)
        os._exit(0)
    return run_cell_chunk(chunk)


class _MarkingCache(ResultCache):
    """Creates ``marker`` on its first store."""

    def __init__(self, root, marker):
        super().__init__(root)
        self.marker = marker

    def store(self, key, record):
        super().store(key, record)
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass


POOLED_CHILD_SCRIPT = textwrap.dedent("""
    import functools, os, sys
    from repro.harness import parallel
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import corpus_plan
    from repro.harness.parallel import ParallelRunner
    from tests.test_resume_shard import POOLED_ARGS, _held_until_orphaned

    root, kills = sys.argv[1], int(sys.argv[2])

    class DyingCache(ResultCache):
        stores = 0
        def store(self, key, record):
            super().store(key, record)
            DyingCache.stores += 1
            if DyingCache.stores >= kills:
                os._exit(9)     # crash hard: no cleanup, no journal line

    plan, _ = corpus_plan(**POOLED_ARGS)
    cells = list(plan)
    parallel._available_cores = lambda: 2
    parallel.run_cell_chunk = functools.partial(_held_until_orphaned,
                                                len(cells) - 1)
    runner = ParallelRunner(jobs=2, cache=DyingCache(root), journal=True)
    runner.run_plan(cells)
    os._exit(0)                 # unreachable: the last chunk never ends
""")


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TestPooledStreaming:
    def test_chunks_are_admitted_while_the_pool_runs(self, tmp_path,
                                                     monkeypatch):
        """The last chunk waits for the first store: it ends by the
        marker only if earlier chunks are admitted before it finishes."""
        monkeypatch.setattr(parallel, "_available_cores", lambda: 2)
        marker = str(tmp_path / "first-store")
        outcome = str(tmp_path / "hold-outcome")
        plan, _ = corpus_plan(**POOLED_ARGS)
        cells = list(plan)
        monkeypatch.setattr(parallel, "run_cell_chunk", functools.partial(
            _held_chunk, marker, len(cells) - 1, outcome))
        cache = _MarkingCache(str(tmp_path / "cache"), marker)
        with ParallelRunner(jobs=2, cache=cache, journal=True) as runner:
            summary = runner.fill_plan(cells)
            assert runner.last_metrics.pooled
        with open(outcome) as fh:
            assert fh.read() == "marker"
        assert summary["executed"] + summary["elided"] == len(cells)
        assert runner.last_journal.summary()["completed"] == len(cells)

    def test_killed_pooled_sweep_resumes_with_zero_reexecution(
            self, tmp_path):
        """Pooled twin of :class:`TestCrashResume`: the child dies while
        its last chunk still runs, after storing the earlier chunks'
        records."""
        root = str(tmp_path / "cache")
        log_path = tmp_path / "child.log"
        with open(log_path, "w") as log:
            child = subprocess.Popen(
                [sys.executable, "-c", POOLED_CHILD_SCRIPT, root,
                 str(POOLED_KILL_AFTER)],
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join((SRC_ROOT, REPO_ROOT))},
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                code = child.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                _kill_group(child.pid)
        assert code == 9, log_path.read_text()

        digests = journals_under(root)
        assert len(digests) == 1
        journal = PlanJournal(root, digests[0])
        before = journal.summary()
        assert (before["executed_lines"] + before["forwarded_lines"]
                == POOLED_KILL_AFTER - 1)

        with ParallelRunner(jobs=1, cache=ResultCache(root),
                            journal=True) as runner:
            table = e9_corpus_ordering(runner=runner,
                                       **POOLED_ARGS).render()
        plan, _ = corpus_plan(**POOLED_ARGS)
        total = len(list(plan))
        assert runner.totals["cells_from_cache"] == POOLED_KILL_AFTER
        assert (runner.totals["cells_executed"] + runner.totals["cells_elided"]
                == total - POOLED_KILL_AFTER)

        after = journal.summary()
        assert after["completed"] == total
        assert after["reexecuted_cells"] == 0
        assert all(n == 1 for n in journal.executed_counts().values())

        with ParallelRunner(jobs=1) as fresh:
            assert table == e9_corpus_ordering(runner=fresh,
                                               **POOLED_ARGS).render()


def _merge_cache_roots(dst: str, src: str) -> None:
    """Union ``src``'s cached records into ``dst`` (simulating two
    hosts' shard fills being rsynced into one root)."""
    for name in os.listdir(src):
        src_dir = os.path.join(src, name)
        if not _is_shard_dir(name) or not os.path.isdir(src_dir):
            continue            # journals and session shards stay
            # per-host; only the two-hex-digit record directories merge
        dst_dir = os.path.join(dst, name)
        os.makedirs(dst_dir, exist_ok=True)
        for entry in os.listdir(src_dir):
            shutil.copy2(os.path.join(src_dir, entry),
                         os.path.join(dst_dir, entry))


class TestShardedFill:
    def test_two_shards_partition_and_merge(self, tmp_path):
        roots = [str(tmp_path / "host0"), str(tmp_path / "host1")]
        outcomes = []
        for index, root in enumerate(roots):
            plan, _ = corpus_plan(**PLAN_ARGS)
            with ParallelRunner(jobs=1,
                                cache=ResultCache(root,
                                                  shard=(index, 2)),
                                journal=True) as runner:
                outcomes.append(runner.fill_plan(plan))

        total = _plan_size()
        assert outcomes[0]["plan"] == outcomes[1]["plan"]
        # Exact partition: every cell completed (simulated or forwarded
        # by cross-point elision) by exactly one shard, nothing served
        # from cache, nothing executed twice.
        assert outcomes[0]["from_cache"] == 0
        assert outcomes[1]["from_cache"] == 0
        completed = [o["executed"] + o["elided"] for o in outcomes]
        assert completed[0] + completed[1] == total
        assert outcomes[0]["foreign"] == outcomes[1]["owned"]
        assert outcomes[1]["foreign"] == outcomes[0]["owned"]
        assert [o["owned"] for o in outcomes] == completed

        worked_keys = []
        for root in roots:
            journal = PlanJournal(root, outcomes[0]["plan"])
            worked_keys.append(
                {key for key, source in journal.completed_keys().items()
                 if source in ("executed", "forwarded")})
        assert not (worked_keys[0] & worked_keys[1])
        manifest = PlanJournal(roots[0],
                               outcomes[0]["plan"]).manifest()
        all_keys = {cell["key"] for cell in manifest["cells"]}
        assert worked_keys[0] | worked_keys[1] == all_keys

        # Merge host1's records into host0; the unsharded render comes
        # entirely from cache and matches a fresh unsharded run.
        _merge_cache_roots(roots[0], roots[1])
        with ParallelRunner(jobs=1,
                            cache=ResultCache(roots[0])) as runner:
            table = e9_corpus_ordering(runner=runner,
                                       **PLAN_ARGS).render()
        assert runner.totals["cells_executed"] == 0
        assert runner.totals["cells_from_cache"] == total
        assert table == _fresh_table()
