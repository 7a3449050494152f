"""Persistent worker pool, kernel-affine chunking, and golden memoisation.

PR 1's batch layer made sweeps parallel and cached, but left two sources
of redundant work on the *uncached* path: every cell re-ran the functional
interpreter (so a 6-point grid paid for each kernel's golden trace six
times, in six different processes), and every ``run_plan`` call built and
tore down a fresh ``ProcessPoolExecutor``.  This module removes both:

* :class:`WorkerPool` — a reusable process pool that is spun up at most
  once per session, survives across consecutive plans, and transparently
  respawns after a worker death (``BrokenProcessPool`` tasks are
  resubmitted to a fresh executor, bounded by ``max_respawns``).
* **Kernel-affine chunks** — the runner groups a plan's un-cached cells
  by :meth:`KernelInstance.identity_digest` and submits one task per
  kernel (:func:`run_cell_chunk`), so every machine point of a kernel
  executes on the same worker in one task and shares one golden run.
* **Golden memo** — a per-process memo (:func:`golden_for`) keyed on the
  identity digest, holding the golden :class:`ExecutionTrace` *and* the
  golden final :class:`ArchState`.  Workers keep it across chunks and
  across plans, so a kernel that reappears in a later experiment costs
  zero additional golden runs on a warm worker.

Every piece is behavior-preserving: the memo key is the same content
digest that addresses the result cache, and a chunk's records are
scattered back into plan order, so tables stay byte-identical for every
``jobs`` value and cache state.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.interp import run_program
from ..arch.state import ArchState
from ..arch.trace import ExecutionTrace
from ..errors import SimulationError
from ..uarch.specialize import PLAN_STORE_COUNTS


class PoolExhaustedError(SimulationError, BrokenProcessPool):
    """The worker pool broke more than ``max_respawns`` times.

    Unlike a bare :class:`BrokenProcessPool`, this names exactly which
    tasks were lost: ``unfinished`` carries the labels the caller
    submitted alongside the tasks (the runner and the sweep server pass
    chunk identity digests), so the caller can reschedule or report the
    lost cells precisely instead of guessing.  Subclassing
    ``BrokenProcessPool`` keeps existing ``except`` clauses working.
    """

    def __init__(self, message: str, unfinished: Sequence = ()):
        super().__init__(message)
        self.unfinished = list(unfinished)

#: (trace, final state) per identity digest.  One entry per kernel that
#: this *process* has interpreted; workers inherit a snapshot on fork and
#: grow their own copy from there.
_GOLDEN_MEMO: "OrderedDict[str, Tuple[ExecutionTrace, ArchState]]" = \
    OrderedDict()

#: Memo capacity: a full evaluation touches ~20 distinct kernels; the cap
#: only matters for very long interactive sessions over many synthetic
#: programs.
_GOLDEN_MEMO_CAP = 64

# ----------------------------------------------------------------------
# Persistent golden store (under the result-cache root, like blockplans)
# ----------------------------------------------------------------------

#: ``<cache root>/golden`` or None; set by :func:`configure_golden_store`
#: before the pool forks, so workers inherit it.
_GOLDEN_STORE_ROOT: Optional[str] = None

#: Pickle schema marker; bump on layout changes.
_GOLDEN_STORE_SCHEMA = "repro-golden/v1"

#: Golden (trace, state) pairs served from disk instead of a fresh
#: interpreter run, this process.
GOLDEN_STORE_COUNTS: Dict[str, int] = {"hits": 0}


def configure_golden_store(root: Optional[str]) -> None:
    """Attach (or detach) the persistent golden-run store."""
    global _GOLDEN_STORE_ROOT
    _GOLDEN_STORE_ROOT = os.path.join(root, "golden") if root else None


def _golden_path(digest: str) -> str:
    name = hashlib.sha256(
        f"{_GOLDEN_STORE_SCHEMA}\n{digest}".encode("utf-8")).hexdigest()
    return os.path.join(_GOLDEN_STORE_ROOT, name[:2], name + ".pkl")


def _golden_from_disk(digest: str):
    if _GOLDEN_STORE_ROOT is None:
        return None
    try:
        with open(_golden_path(digest), "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    if (not isinstance(payload, tuple) or len(payload) != 3
            or payload[0] != _GOLDEN_STORE_SCHEMA):
        return None
    return payload[1], payload[2]


def _golden_to_disk(digest: str,
                    golden: Tuple[ExecutionTrace, ArchState]) -> None:
    """Best-effort write-through (atomic tmp+replace)."""
    if _GOLDEN_STORE_ROOT is None:
        return
    path = _golden_path(digest)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump((_GOLDEN_STORE_SCHEMA, golden[0], golden[1]), fh)
        os.replace(tmp, path)
    except (OSError, pickle.PicklingError):
        pass


def golden_for(instance, digest: Optional[str] = None,
               ) -> Tuple[Tuple[ExecutionTrace, ArchState], bool]:
    """The golden (trace, final state) for ``instance``, memoised.

    Returns ``(golden, fresh)`` where ``fresh`` says whether this call
    actually ran the functional interpreter.  The memo key is
    :meth:`KernelInstance.identity_digest` — the same content digest the
    result cache is addressed by — so two instances with equal digests
    share one golden run and a mutated instance misses cleanly.  Callers
    that already derived the digest (the runner computes one per cell
    for cache probing and chunk grouping) pass it in to skip re-encoding
    the program.
    """
    if digest is None:
        digest = instance.identity_digest()
    memo = _GOLDEN_MEMO
    golden = memo.get(digest)
    if golden is not None:
        memo.move_to_end(digest)
        return golden, False
    golden = _golden_from_disk(digest)
    if golden is not None:
        # Served by the persistent store: no interpreter run was paid,
        # so this is *not* fresh — golden_runs_per_kernel only drops.
        GOLDEN_STORE_COUNTS["hits"] += 1
        memo[digest] = golden
        while len(memo) > _GOLDEN_MEMO_CAP:
            memo.popitem(last=False)
        return golden, False
    golden = run_program(instance.program, instance.initial_regs)
    memo[digest] = golden
    while len(memo) > _GOLDEN_MEMO_CAP:
        memo.popitem(last=False)
    _golden_to_disk(digest, golden)
    return golden, True


def reset_golden_memo() -> None:
    """Drop every memoised golden run (tests and cold benchmarks).

    Also detaches the persistent golden store: it is just another memo
    tier, and a "cold" measurement that silently read golden runs from a
    previous session's disk store would not be cold.  A runner with a
    cache re-attaches the store when it is constructed.
    """
    _GOLDEN_MEMO.clear()
    configure_golden_store(None)


def run_cell_chunk(chunk: Sequence) -> dict:
    """Worker entry point: run one kernel's cells against one golden run.

    ``chunk`` is a list of ``(plan_index, cell)`` pairs whose cells all
    share one identity digest (the runner guarantees this), so the golden
    trace/state pair is derived once — from the per-worker memo when the
    kernel was seen before — and shared by every simulation in the task.
    Returns the indexed records plus redundancy accounting.
    """
    # Imported here: repro.harness.parallel imports this module at top
    # level (the runner owns a WorkerPool), so the reverse import must be
    # deferred until the worker actually executes a chunk.
    from .elide import elide_pairs
    from .parallel import execute_cell

    digests = {cell.instance.identity_digest() for _, cell in chunk}
    if len(digests) != 1:
        raise SimulationError(
            f"kernel-affine chunk spans {len(digests)} identity digests")
    digest = next(iter(digests))
    golden_fresh = 0
    golden_hits = 0
    arenas: Dict[int, dict] = {}
    counts = {"representatives": 0, "elided": 0, "fallbacks": 0}
    plan_hits0 = PLAN_STORE_COUNTS["hits"]
    plan_miss0 = PLAN_STORE_COUNTS["misses"]
    golden_store0 = GOLDEN_STORE_COUNTS["hits"]

    def execute(index, cell, config):
        nonlocal golden_fresh, golden_hits
        golden, fresh = golden_for(cell.instance, digest)
        if fresh:
            golden_fresh += 1
        else:
            golden_hits += 1
        # Per-program-object frame arena: the chunk's machine points
        # hand their retired frames to the next point's processor.
        arena = arenas.setdefault(id(cell.instance.program), {})
        return execute_cell(cell, golden=golden, frame_arena=arena,
                            config=config)

    # Cross-point elision runs *inside* the chunk: a kernel's whole
    # point grid lives in one task (the runner guarantees it), so a
    # clean representative forwards to its siblings right here without
    # a second scheduling phase or an extra golden run.
    records = list(elide_pairs(
        ((index, cell, digest) for index, cell in chunk),
        execute, counts))
    return {
        "records": records,
        "pid": os.getpid(),
        "golden_fresh": golden_fresh,
        "golden_hits": golden_hits,
        "elided": counts["elided"],
        "representatives": counts["representatives"],
        "fallbacks": counts["fallbacks"],
        "planstore": {
            "plan_cache_hits": PLAN_STORE_COUNTS["hits"] - plan_hits0,
            "plan_cache_misses": PLAN_STORE_COUNTS["misses"] - plan_miss0,
            "golden_store_hits":
                GOLDEN_STORE_COUNTS["hits"] - golden_store0,
        },
    }


class WorkerPool:
    """A process pool that outlives individual plans.

    The executor is created lazily on the first :meth:`run` and reused by
    every subsequent call until :meth:`close`; ``spinups`` counts how many
    executors were ever built (1 for a healthy session).  A worker death
    breaks a ``ProcessPoolExecutor`` wholesale, so :meth:`run` collects
    the tasks whose futures failed with :class:`BrokenProcessPool`,
    tears the executor down, and resubmits them to a fresh one — at most
    ``max_respawns`` times, after which the breakage propagates.
    """

    def __init__(self, jobs: int, max_respawns: int = 2):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.max_respawns = max_respawns
        self.spinups = 0
        self.broken_recoveries = 0
        self.tasks_run = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Guards executor creation/teardown: the sweep server calls
        #: :meth:`run` from several dispatcher threads at once, and a
        #: break observed by two of them must respawn exactly once.
        self._lock = threading.Lock()
        self._generation = 0

    # ------------------------------------------------------------------

    def _ensure_locked(self) -> Tuple[ProcessPoolExecutor, int]:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            self.spinups += 1
            self._generation += 1
        return self._executor, self._generation

    def _retire(self, generation: int) -> None:
        """Tear down the executor that produced a break — exactly once,
        even when several threads observe the same broken generation."""
        with self._lock:
            if self._generation != generation or self._executor is None:
                return          # another thread already respawned it
            executor, self._executor = self._executor, None
            self.broken_recoveries += 1
        executor.shutdown()

    @property
    def warm(self) -> bool:
        """True once an executor exists (the next plan reuses it)."""
        return self._executor is not None

    def run(self, fn: Callable, tasks: Sequence,
            labels: Optional[Sequence] = None) -> List:
        """Run ``fn`` over ``tasks``; results in task order.

        Tasks lost to a dead worker are retried on a respawned executor;
        any other exception from ``fn`` propagates unchanged.  When the
        respawn budget runs out, the raised :class:`PoolExhaustedError`
        carries ``labels[i]`` (or ``i`` when no labels were given) for
        every task that never finished.
        """
        if labels is not None and len(labels) != len(tasks):
            raise ValueError("labels must parallel tasks")
        results: List = [None] * len(tasks)
        pending = list(range(len(tasks)))
        respawns = 0
        while pending:
            with self._lock:
                executor, generation = self._ensure_locked()
            futures = []
            broken: List[int] = []
            for i in pending:
                try:
                    futures.append((i, executor.submit(fn, tasks[i])))
                except RuntimeError:
                    # Another thread retired this executor mid-submit;
                    # treat the task as broken and retry on the next one.
                    broken.append(i)
            for i, future in futures:
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    broken.append(i)
            if broken:
                broken.sort()
                respawns += 1
                if respawns > self.max_respawns:
                    lost = [labels[i] if labels is not None else i
                            for i in broken]
                    raise PoolExhaustedError(
                        f"worker pool broke {respawns} times; giving up "
                        f"on {len(broken)} tasks: "
                        + ", ".join(map(str, lost)),
                        unfinished=lost)
                self._retire(generation)
            pending = broken
        self.tasks_run += len(tasks)
        return results

    def close(self) -> None:
        """Shut the executor down (a later :meth:`run` re-spins)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class SweepMetrics:
    """Sweep-level redundancy and wall-clock accounting for one plan."""

    cells: int                   # cells in the plan
    executed: int                # actually simulated (cache misses
                                 # minus forwarded siblings)
    from_cache: int              # served by the result cache
    wall_seconds: float          # run_plan wall-clock
    cells_per_sec: float         # *executed* / wall_seconds — elided and
                                 # cached cells are reported separately
                                 # so throughput numbers stay honest
    kernels_executed: int        # distinct identity digests simulated
    golden_fresh_runs: int       # functional-interpreter runs actually paid
    golden_memo_hits: int        # golden requests served by a memo
    golden_runs_per_kernel: float  # fresh runs / distinct kernels (<= 1.0)
    pooled: bool                 # True if a process pool executed cells
    pool_spinups: int            # executors ever built (session total)
    pool_reuses: int             # plans served by an already-warm pool
    #: Cells of this plan that were not executed *or* cached but joined
    #: an execution already in flight for another plan (sweep server).
    inflight_dedup_hits: int = 0
    #: Block-plan code-cache activity summed over this plan's *executed*
    #: cells (repro.uarch.specialize; cached cells excluded).
    specialize_hits: int = 0
    specialize_misses: int = 0
    #: Work attribution summed over this plan's *executed* cells: FU
    #: work by fate (issued == committed + squashed), wave-2+ operand
    #: re-delivery traffic, and epoch-granular rollback activity (zero
    #: for the non-epoch protocols).
    fu_work_issued: int = 0
    fu_work_committed: int = 0
    squashed_executions: int = 0
    wave_operand_sends: int = 0
    epoch_rollbacks: int = 0
    epoch_rollback_depth: int = 0
    #: Cross-point elision (repro.harness.elide): cells served by
    #: forwarding a clean representative's record, the representative
    #: runs that enabled it, and dirty-certificate groups that fell
    #: back to per-point simulation.
    elided_cells: int = 0
    representative_runs: int = 0
    elision_fallbacks: int = 0
    #: Persistent plan/golden stores: block plans loaded from disk vs.
    #: compiled+written-through, and golden runs served from disk (no
    #: interpreter run paid).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    golden_store_hits: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "executed": self.executed,
            "from_cache": self.from_cache,
            "wall_seconds": round(self.wall_seconds, 6),
            "cells_per_sec": round(self.cells_per_sec, 2),
            "kernels_executed": self.kernels_executed,
            "golden_fresh_runs": self.golden_fresh_runs,
            "golden_memo_hits": self.golden_memo_hits,
            "golden_runs_per_kernel": round(self.golden_runs_per_kernel, 4),
            "pooled": self.pooled,
            "pool_spinups": self.pool_spinups,
            "pool_reuses": self.pool_reuses,
            "inflight_dedup_hits": self.inflight_dedup_hits,
            "specialize_hits": self.specialize_hits,
            "specialize_misses": self.specialize_misses,
            "fu_work_issued": self.fu_work_issued,
            "fu_work_committed": self.fu_work_committed,
            "squashed_executions": self.squashed_executions,
            "wave_operand_sends": self.wave_operand_sends,
            "epoch_rollbacks": self.epoch_rollbacks,
            "epoch_rollback_depth": self.epoch_rollback_depth,
            "elided_cells": self.elided_cells,
            "representative_runs": self.representative_runs,
            "elision_fallbacks": self.elision_fallbacks,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "golden_store_hits": self.golden_store_hits,
        }
