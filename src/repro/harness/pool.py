"""Persistent worker pool, kernel-affine chunking, and golden memoisation.

PR 1's batch layer made sweeps parallel and cached, but left two sources
of redundant work on the *uncached* path: every cell re-ran the functional
interpreter (so a 6-point grid paid for each kernel's golden trace six
times, in six different processes), and every ``run_plan`` call built and
tore down a fresh ``ProcessPoolExecutor``.  This module removes both:

* :class:`WorkerPool` — a reusable process pool that is spun up at most
  once per session, survives across consecutive plans, streams each
  task's result back as it completes (:meth:`WorkerPool.stream`), and
  transparently respawns after a worker death (``BrokenProcessPool``
  tasks are resubmitted to a fresh executor, bounded by
  ``max_respawns``).
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

import dataclasses
import gc
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (Callable, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..arch.interp import run_program
from ..arch.state import ArchState
from ..arch.trace import ExecutionTrace
from ..errors import SimulationError
from .elide import config_texts
from .metrics import CHUNK_NAMES, new_counts
from .sweep import inputs_key


class PoolExhaustedError(SimulationError, BrokenProcessPool):
    """The worker pool broke more than ``max_respawns`` times.

    Unlike a bare :class:`BrokenProcessPool`, this names exactly which
    tasks were lost: ``unfinished`` carries the labels the caller
    submitted alongside the tasks (the runner passes chunk identity
    digests), so the caller can reschedule or report the lost cells
    precisely instead of guessing.  Subclassing
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

#: What this process's chunk bodies derived per distinct plan input
#: (:func:`~repro.harness.sweep.inputs_key`'s exact value key, never an
#: ``id``): ``(config, *config_texts(config))``, the config and its
#: record section and elision group text.  A pool worker derives each
#: machine point's once, not once per cell of every chunk; all three are
#: only read.
_CONFIG_MEMO: Dict[Hashable, Tuple] = {}

#: Distinct inputs kept before the memo starts over.
_CONFIG_MEMO_CAP = 256


def golden_for(instance, digest: Optional[str] = None,
               ) -> Tuple[Tuple[ExecutionTrace, ArchState], bool]:
    """The golden (trace, final state) for ``instance``, memoised.

    Returns ``(golden, fresh)`` where ``fresh`` says whether this call
    actually ran the functional interpreter.  The memo key is
    :meth:`KernelInstance.identity_digest` — the same content digest the
    result cache is addressed by — so two instances with equal digests
    share one golden run and a mutated instance misses cleanly.  Callers
    that already derived the digest (the runner derives one per distinct
    instance object of a plan, for cache probing and chunk grouping)
    pass it in to skip re-encoding the program.
    """
    if digest is None:
        digest = instance.identity_digest()
    memo = _GOLDEN_MEMO
    golden = memo.get(digest)
    if golden is not None:
        memo.move_to_end(digest)
        return golden, False
    golden = run_program(instance.program, instance.initial_regs)
    memo[digest] = golden
    while len(memo) > _GOLDEN_MEMO_CAP:
        memo.popitem(last=False)
    return golden, True


def identity_digests(cells: Sequence) -> List[str]:
    """Each cell's :meth:`KernelInstance.identity_digest`, derived once
    per distinct instance object.

    The memo lives only for this call (keyed by ``id``, which is stable
    while ``cells`` holds the instances), so nothing is cached on the
    instances themselves.
    """
    by_object: Dict[int, str] = {}
    digests = []
    for cell in cells:
        instance = cell.instance
        digest = by_object.get(id(instance))
        if digest is None:
            digest = by_object[id(instance)] = instance.identity_digest()
        digests.append(digest)
    return digests


def reset_golden_memo() -> None:
    """Drop every memoised golden run (tests and cold benchmarks)."""
    _GOLDEN_MEMO.clear()


def run_cell_chunk(chunk: Sequence) -> dict:
    """Worker entry point: run one kernel's cells against one golden run.

    ``chunk`` is a list of ``(plan_index, cell)`` pairs whose cells all
    share one identity digest (the runner guarantees this), so the golden
    trace/state pair is derived once — from the per-worker memo when the
    kernel was seen before — and shared by every simulation in the task.
    Cross-point elision runs *inside* the chunk: a kernel's whole point
    grid lives in one task, so a clean representative forwards to its
    siblings right here.  Returns the indexed records and the chunk's
    ``counts`` (the ``CELL`` and ``CHUNK`` counters of
    repro.harness.metrics).
    """
    # Imported here: repro.harness.parallel imports this module at top
    # level (the runner owns a WorkerPool), so the reverse import must be
    # deferred until the worker actually executes a chunk.
    from .parallel import run_chunk

    # The runner's chunks share one instance object per kernel (and
    # pickling keeps that sharing), so this derives one digest.
    digests = set(identity_digests([cell for _, cell in chunk]))
    if len(digests) != 1:
        raise SimulationError(
            f"kernel-affine chunk spans {len(digests)} identity digests")
    digest = next(iter(digests))
    if len(_CONFIG_MEMO) > _CONFIG_MEMO_CAP:
        _CONFIG_MEMO.clear()
    # The chunk's ``elide_pairs`` texts, seeded from the memo.
    texts: Dict[int, Tuple] = {}

    def with_config(cell):
        # A cell that arrives with its plan's config (an in-process
        # caller) keeps it; the memo only holds what was derived here.
        if cell.derived is not None:
            return cell
        key = inputs_key(cell.base, cell.point, cell.overrides)
        entry = _CONFIG_MEMO.get(key) if key is not None else None
        if entry is None:
            config = cell.config()
            entry = (config,) + config_texts(config)
            if key is not None:
                _CONFIG_MEMO[key] = entry
        texts[id(entry[0])] = entry
        return dataclasses.replace(cell, derived=entry[0])

    items = ((index, with_config(cell), digest) for index, cell in chunk)
    counts = new_counts(CHUNK_NAMES)
    records = list(run_chunk(items, counts, texts))
    return {"records": records, "counts": counts, "pid": os.getpid()}


#: Seconds between a pool worker's checks that its parent is alive.
_PARENT_POLL_S = 0.5


def _init_worker() -> None:
    """Executor initializer: freeze what the worker inherited, and end
    the worker when its parent is gone.

    The pool forks its workers after the parent has built the plan, so
    every worker inherits all of it.  ``gc.freeze()`` moves everything
    the worker holds now to the permanent generation, so the worker's
    collections never walk (or dirty the pages of) the inherited plan;
    the ``gc`` documentation gives this reason for freezing at
    ``fork``.  It is O(1), and the worker still collects the garbage
    its own chunks make: one simulated cell leaves thousands of objects
    in reference cycles, so the collector stays on.

    An idle worker blocks on the executor's call queue, so one whose
    owner died without shutting the pool down (SIGKILL, an OOM kill,
    ``os._exit``) would wait there forever, reparented to init.  A
    daemon thread polls the parent pid and exits the worker once it
    changes.  The parent is the owner under fork and spawn, and the fork
    server, which exits with its owner, under forkserver.
    """
    gc.freeze()
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="pool-parent-watch",
                     daemon=True).start()


class WorkerPool:
    """A process pool that outlives individual plans.

    The executor is created lazily on the first :meth:`stream` (or
    :meth:`run`) and reused by every subsequent call until
    :meth:`close`; ``spinups`` counts how many executors were ever built
    (1 for a healthy session) and ``reuses`` how many calls found one
    already built.  A worker death breaks a
    ``ProcessPoolExecutor`` wholesale, so :meth:`stream` collects the
    tasks whose futures failed with :class:`BrokenProcessPool`, tears the
    executor down, and resubmits them to a fresh one — at most
    ``max_respawns`` times, after which the breakage propagates.  Every
    worker exits on its own once the process that owns the pool is gone,
    so a killed owner leaves no worker behind.
    """

    def __init__(self, jobs: int, max_respawns: int = 2):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.max_respawns = max_respawns
        self.spinups = 0
        self.reuses = 0
        self.broken_recoveries = 0
        self.tasks_run = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Guards executor creation/teardown: the sweep server calls
        #: :meth:`stream` from several plan threads at once, and a
        #: break observed by two of them must respawn exactly once.
        self._lock = threading.Lock()
        self._generation = 0

    # ------------------------------------------------------------------

    def _ensure_locked(self) -> Tuple[ProcessPoolExecutor, int]:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_worker)
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

    def stream(self, fn: Callable, tasks: Sequence,
               labels: Optional[Sequence] = None,
               ) -> Iterator[Tuple[int, object]]:
        """Run ``fn`` over ``tasks``; yield ``(index, result)`` pairs.

        Every task is submitted at once, and results are yielded in
        submission order, each as soon as its own future completes, so
        the caller can use the first results while later tasks still
        run.  Tasks lost to a dead worker are resubmitted to a respawned
        executor once the round's other results have been yielded, and
        are yielded then; any other exception from ``fn`` propagates
        unchanged.  When the respawn budget runs out, the raised
        :class:`PoolExhaustedError` carries ``labels[i]`` (or ``i`` when
        no labels were given) for every task that never finished.  When
        the caller stops early (closes the generator) or a task raises,
        the tasks that have not started are cancelled.
        """
        if labels is not None and len(labels) != len(tasks):
            raise ValueError("labels must parallel tasks")
        pending = list(range(len(tasks)))
        respawns = 0
        while pending:
            with self._lock:
                if not respawns and self._executor is not None:
                    self.reuses += 1
                executor, generation = self._ensure_locked()
            futures = []
            broken: List[int] = []
            try:
                for i in pending:
                    try:
                        futures.append((i, executor.submit(fn, tasks[i])))
                    except RuntimeError:
                        # Another thread retired this executor mid-submit;
                        # treat the task as broken and retry on the next.
                        broken.append(i)
                for i, future in futures:
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken.append(i)
                        continue
                    yield i, result
            finally:
                for _, future in futures:
                    future.cancel()
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

    def run(self, fn: Callable, tasks: Sequence,
            labels: Optional[Sequence] = None) -> List:
        """Run ``fn`` over ``tasks``; results in task order.

        Collects :meth:`stream`, so tasks lost to a dead worker, the
        respawn budget and :class:`PoolExhaustedError` behave exactly as
        there.
        """
        results: List = [None] * len(tasks)
        for i, result in self.stream(fn, tasks, labels):
            results[i] = result
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

