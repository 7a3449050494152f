"""Parallel, cache-backed execution of sweep plans.

:class:`ParallelRunner` takes a :class:`~repro.harness.sweep.SweepPlan`
and produces one :class:`CellResult` per cell, in plan order, by

1. probing the :class:`~repro.harness.cache.ResultCache` (when attached)
   with the cell's content address,
2. executing the remainder with **zero redundancy**: cells are grouped
   into kernel-affine chunks (all machine points of a kernel in one
   task) and fanned out over a persistent
   :class:`~repro.harness.pool.WorkerPool` that survives across plans —
   unless the remainder is smaller than ``jobs`` (or ``jobs=1``, or only
   one kernel is left), in which case everything runs in-process and no
   pool is ever spun up, and
3. admitting fresh results to the cache as they arrive: each cell
   in-process, each chunk pooled, while later chunks still run.

Each kernel's **golden run** — the functional-interpreter trace and
final architectural state — is derived exactly once per process and
memoised (:func:`~repro.harness.pool.golden_for`), then shared by every
machine point of that kernel; the differential check still refuses to
return a timing result whose final architectural state (registers +
memory) differs from it, so the batch layer remains an always-on
differential checker and every cached record is a result that passed it.
Results carry only counters and digests (picklable and
JSON-serialisable), never live simulator objects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..arch.interp import run_program
from ..arch.state import ArchState
from ..errors import GoldenMismatchError
from ..stats.counters import SimStats
from ..uarch.cache import CacheStats
from ..uarch.config import MachineConfig
from ..uarch.lsq import LsqStats
from ..uarch.network import NetworkStats
from ..uarch.predictor import PredictorStats
from ..uarch.processor import Processor, SimResult
from ..workloads.common import KernelInstance
from .cache import SCHEMA_VERSION, ResultCache, cache_key
from .elide import elide_pairs
from .journal import PlanJournal, plan_digest
from .metrics import (SweepMetrics, add_counts, count_cell, new_counts,
                      with_pool_counts, write_session_shard)
from .pool import WorkerPool, golden_for, identity_digests, run_cell_chunk
from .runner import POINT_ORDER
from .sweep import SweepCell, SweepPlan

def _available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:                       # platforms without it
        return os.cpu_count() or 1


def _counters_to_dict(obj) -> Dict[str, int]:
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def _counters_from_dict(cls, data: Dict[str, int]):
    return cls(**{name: int(data[name])
                  for name in cls.__dataclass_fields__ if name in data})


def arch_state_digest(state: ArchState) -> str:
    """SHA-256 over the final registers and all non-zero memory words.

    The hashed stream is the register list followed by one
    ``;addr:word`` item per non-zero aligned word, in address order.
    """
    h = hashlib.sha256()
    h.update(",".join(map(str, state.regs)).encode())
    h.update("".join([f";{addr}:{word}" for addr, word
                      in state.memory.nonzero_words()]).encode())
    return h.hexdigest()


@dataclass
class CellResult:
    """One sweep cell's outcome: counters + digests, fully picklable."""

    kernel: str
    point: Optional[str]
    label: str
    config: MachineConfig
    stats: SimStats
    network_stats: NetworkStats
    lsq_stats: LsqStats
    l1_stats: CacheStats
    predictor_stats: PredictorStats
    arch_digest: str
    from_cache: bool = False
    #: Point-invariance certificate dict (``None`` for pre-certificate
    #: records) and, for a cell served by cross-point elision, the cache
    #: key of the clean representative its record was forwarded from.
    certificate: Optional[dict] = None
    forwarded_from: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


# ----------------------------------------------------------------------
# Cell execution (runs inside worker processes)
# ----------------------------------------------------------------------

def _simulate(instance: KernelInstance, config: MachineConfig,
              golden, frame_arena: Optional[dict] = None) -> SimResult:
    """One timing simulation (separable so tests can fault-inject)."""
    processor = Processor(instance.program, config, instance.initial_regs,
                          golden=golden, frame_arena=frame_arena)
    return processor.run()


def _differential_problems(golden_state: ArchState,
                           timing_state: ArchState,
                           limit: int = 8) -> List[str]:
    """Human-readable diffs between golden and timing final states.

    Equal states (registers, then memory page by page) have none; the
    per-word report is built only for a state that differs.
    """
    if golden_state == timing_state:
        return []
    problems = []
    for reg, (want, got) in enumerate(zip(golden_state.regs,
                                          timing_state.regs)):
        if want != got:
            problems.append(f"R{reg} = {got}, golden {want}")
    golden_mem = dict(golden_state.memory.nonzero_words())
    timing_mem = dict(timing_state.memory.nonzero_words())
    for addr in sorted(set(golden_mem) | set(timing_mem)):
        want, got = golden_mem.get(addr, 0), timing_mem.get(addr, 0)
        if want != got:
            problems.append(f"mem[{addr:#x}] = {got}, golden {want}")
    if len(problems) > limit:
        problems = problems[:limit] + \
            [f"... and {len(problems) - limit} more"]
    return problems


def execute_cell(cell: SweepCell, golden: Optional[Tuple] = None,
                 frame_arena: Optional[dict] = None,
                 config: Optional[MachineConfig] = None) -> dict:
    """Run one cell and return its cache record.

    Runs the timing simulation against the kernel's golden run — the
    functional-interpreter ``(trace, final state)`` pair, derived here
    when ``golden`` is not supplied by the caller's memo — then asserts
    the architectural results match (the differential check) and that
    the kernel's own expectations hold.  Raises
    :class:`GoldenMismatchError` — never returns — on divergence.  The
    golden pair is only read, so one pair is safely shared by every
    machine point of a kernel.  ``frame_arena`` (optional, one dict per
    *program object*) likewise carries parked frames from one machine
    point of a kernel to the next, so only the first cell pays the
    window's frame construction.
    """
    instance = cell.instance
    if config is None:
        config = cell.config()
    if golden is None:
        golden = run_program(instance.program, instance.initial_regs)
    golden_trace, golden_state = golden
    result = _simulate(instance, config, golden_trace, frame_arena)
    problems = _differential_problems(golden_state, result.arch)
    if problems:
        raise GoldenMismatchError(
            f"differential check failed for {cell.label}: timing simulator "
            f"committed state diverges from the golden interpreter: "
            + "; ".join(problems))
    expected = instance.check(result.arch)
    if expected:
        raise GoldenMismatchError(
            f"{cell.label}: wrong final state: {expected}")
    return {
        "schema": SCHEMA_VERSION,
        "kernel": instance.name,
        "point": cell.point,
        "label": cell.label,
        "config": config.to_dict(),
        "result": {
            "stats": _counters_to_dict(result.stats),
            "network": _counters_to_dict(result.network_stats),
            "lsq": _counters_to_dict(result.lsq_stats),
            "l1": _counters_to_dict(result.l1_stats),
            "predictor": _counters_to_dict(result.predictor_stats),
        },
        "arch_digest": arch_state_digest(result.arch),
        "halted": result.halted,
        # Top-level (not under "result"): the certificate is sweep-layer
        # provenance, not a simulated-machine counter — SimStats layout
        # stays pinned and old cache records remain valid (a record
        # without a certificate is simply never forwardable).
        "certificate": result.certificate.as_dict()
        if result.certificate is not None else None,
    }


def run_chunk(items: Iterable[Tuple[int, SweepCell, str]],
              counts: Dict[str, int]) -> Iterable[Tuple[int, dict]]:
    """The chunk body, pooled (:func:`~repro.harness.pool.run_cell_chunk`)
    and in-process alike: yields ``(plan_index, record)`` per item.

    ``items`` are ``(plan_index, cell, identity_digest)`` triples in plan
    order.  Each kernel's golden run comes from the process's memo
    (derived once), every machine point of a kernel hands its retired
    frames to the next through one arena, and cross-point elision
    forwards clean representatives to their siblings.  Adds the
    ``CELL`` and ``CHUNK`` counters (repro.harness.metrics) to
    ``counts``.
    """
    arenas: Dict[int, dict] = {}
    kernels = set()

    def execute(cell, config, digest):
        golden, fresh = golden_for(cell.instance, digest)
        counts["golden_fresh_runs" if fresh else "golden_memo_hits"] += 1
        kernels.add(digest)
        # One frame arena per program *object* (identity, not digest):
        # frames parked by one machine point are reused by the kernel's
        # next point, and a frame's block references always belong to
        # the running program.
        arena = arenas.setdefault(id(cell.instance.program), {})
        return execute_cell(cell, golden=golden, frame_arena=arena,
                            config=config)

    for index, record in elide_pairs(items, execute, counts):
        count_cell(counts, record)
        yield index, record
    counts["kernels_executed"] += len(kernels)


def result_from_record(record: dict, from_cache: bool) -> CellResult:
    """Rebuild a :class:`CellResult` from a cache/worker record."""
    payload = record["result"]
    return CellResult(
        kernel=record["kernel"],
        point=record["point"],
        label=record.get("label", record["kernel"]),
        config=MachineConfig.from_dict(record["config"]),
        stats=_counters_from_dict(SimStats, payload["stats"]),
        network_stats=_counters_from_dict(NetworkStats, payload["network"]),
        lsq_stats=_counters_from_dict(LsqStats, payload["lsq"]),
        l1_stats=_counters_from_dict(CacheStats, payload["l1"]),
        predictor_stats=_counters_from_dict(PredictorStats,
                                            payload["predictor"]),
        arch_digest=record["arch_digest"],
        from_cache=from_cache,
        certificate=record.get("certificate"),
        forwarded_from=record.get("forwarded_from"),
    )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

class ParallelRunner:
    """Executes sweep plans through a cache and a persistent worker pool.

    ``jobs=1`` (the deterministic fallback) runs every cell in-process in
    plan order; ``jobs>1`` — clamped to the host's schedulable cores
    (``effective_jobs``), since oversubscribing pure-CPU simulations only
    adds fork/IPC overhead — fans un-cached cells out as kernel-affine
    chunks over a :class:`WorkerPool` that is spun up at most once and
    reused by every subsequent plan — unless the post-cache remainder is
    smaller than ``effective_jobs`` (or spans a single kernel), in which
    case the remainder runs in-process and no pool is created at all (a
    pool that already exists, warm or caller-supplied, is always used:
    its workers hold warm golden memos).  Either way
    the returned list is in plan order and — because each cell is an
    isolated, deterministic simulation — bit-identical across job counts.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 pool: Optional[WorkerPool] = None,
                 journal: bool = False):
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        #: Worker processes that can actually run concurrently.  Asking
        #: for more jobs than schedulable cores only adds fork/IPC
        #: overhead (the simulations are pure CPU), so oversubscription
        #: is clamped away and a single-core host runs in-process — the
        #: golden memo makes that path zero-redundancy too.
        self.effective_jobs = max(1, min(self.jobs, _available_cores()))
        self.cache = cache
        #: When True, every plan writes a manifest and a per-cell
        #: completion journal under ``<cache root>/plans/`` (the
        #: resumable-sweep proof artifacts — see repro.harness.journal).
        self.journal_enabled = bool(journal)
        if self.journal_enabled and cache is None:
            raise ValueError("journal=True requires a cache (the journal "
                             "lives in the cache root)")
        #: The journal of the most recent run_plan/fill_plan call.
        self.last_journal: Optional[PlanJournal] = None
        #: Counters merged across every cell this runner has produced
        #: (cached or fresh) — the whole-session aggregate.
        self.merged_stats = SimStats()
        #: Session totals of every registered sweep counter
        #: (repro.harness.metrics), summed plan by plan; the ``POOL``
        #: counters stay zero here and are read from the pool.
        self.totals: Dict[str, int] = new_counts()
        #: Always zero: the on-disk stores these counted are gone.
        self.planstore_totals = {
            "golden_store_hits": 0,     # read by perfbench/workloads.py
            "plan_cache_hits": 0,       # read by perfbench/workloads.py
        }
        self.wall_seconds = 0.0
        #: The persistent pool; created lazily on the first plan that
        #: needs one, then reused until :meth:`close`.
        self.pool = pool
        self._owns_pool = pool is None
        #: Metrics of the most recent :meth:`run_plan`/:meth:`fill_plan`.
        self.last_metrics: Optional[SweepMetrics] = None

    # Two session totals under the names perfbench/workloads.py reads.

    @property
    def golden_fresh(self) -> int:
        return self.totals["golden_fresh_runs"]

    @property
    def elision_fallbacks(self) -> int:
        return self.totals["elision_fallbacks"]

    # -- plan execution -------------------------------------------------

    def run_plan(self, plan: Iterable[SweepCell]) -> List[CellResult]:
        started = time.perf_counter()
        cells = list(plan)
        digests = identity_digests(cells)
        results: List[Optional[CellResult]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        pending: List[int] = []

        for index, cell in enumerate(cells):
            config = cell.config()
            if self.cache is not None:
                key = cache_key(digests[index], config)
                keys[index] = key
                record = self.cache.load(key)
                if record is not None:
                    results[index] = result_from_record(record,
                                                        from_cache=True)
                    continue
            pending.append(index)

        journal = self._open_journal(cells, keys)
        if journal is not None:
            for index, result in enumerate(results):
                if result is not None:
                    journal.record(index, keys[index], "cache")

        counts = new_counts()
        counts["cells_from_cache"] = len(cells) - len(pending)
        pooled, records = self._execute(cells, digests, pending, counts)
        for index, record in records:
            self._admit(keys[index], record)
            if journal is not None:
                journal.record(index, keys[index],
                               "forwarded" if record.get("forwarded_from")
                               else "executed")
            results[index] = result_from_record(record, from_cache=False)

        for result in results:
            self.merged_stats.merge(result.stats)
        self._account_plan(counts, len(cells), pooled,
                           time.perf_counter() - started)
        return results

    def fill_plan(self, plan: Iterable[SweepCell]) -> Dict[str, object]:
        """Shard-aware cache fill: execute this process's share of a plan.

        Unlike :meth:`run_plan`, no results are returned — the point is
        to *populate the content-addressed cache* so a later (unsharded)
        ``run_plan`` renders the table entirely from cached cells.  A
        pending cell is executed only when the attached cache **owns**
        its key (:meth:`ResultCache.owns_key`, digest-range claiming);
        foreign cells are left for the owning shard, which is what lets
        several hosts fill one mergeable cache root without duplicating
        work.  Completions are journaled when journaling is enabled, so
        a crashed fill resumes with zero re-executed cells.
        """
        if self.cache is None:
            raise ValueError("fill_plan requires a cache")
        started = time.perf_counter()
        cells = list(plan)
        digests = identity_digests(cells)
        keys = [cache_key(digests[i], cells[i].config())
                for i in range(len(cells))]
        cached: List[int] = []
        owned: List[int] = []
        foreign: List[int] = []
        for index in range(len(cells)):
            record = self.cache.load(keys[index])
            if record is not None:
                cached.append(index)
                self._merge_record_stats(record)
            elif self.cache.owns_key(keys[index]):
                owned.append(index)
            else:
                foreign.append(index)

        journal = self._open_journal(cells, keys)
        if journal is not None:
            for index in cached:
                journal.record(index, keys[index], "cache")

        counts = new_counts()
        counts["cells_from_cache"] = len(cached)
        pooled, records = self._execute(cells, digests, owned, counts)
        for index, record in records:
            self._admit(keys[index], record)
            self._merge_record_stats(record)
            if journal is not None:
                journal.record(index, keys[index],
                               "forwarded" if record.get("forwarded_from")
                               else "executed")
        self._account_plan(counts, len(cells), pooled,
                           time.perf_counter() - started)
        return {
            "plan": journal.digest if journal is not None
            else plan_digest(keys),
            "cells": len(cells),
            "from_cache": len(cached),
            "executed": counts["cells_executed"],
            "elided": counts["cells_elided"],
            "foreign": len(foreign),
            "owned": len(owned),
        }

    def _open_journal(self, cells: List[SweepCell],
                      keys: List[Optional[str]]) -> Optional[PlanJournal]:
        """Create (or reattach to) this plan's journal when enabled."""
        self.last_journal = None
        if not self.journal_enabled or self.cache is None or not cells:
            return None
        journal = PlanJournal(self.cache.root, plan_digest(keys))
        journal.write_manifest(
            [{"index": i, "key": keys[i], "label": cells[i].label}
             for i in range(len(cells))])
        self.last_journal = journal
        return journal

    def _admit(self, key: Optional[str], record: dict) -> None:
        """Write one fresh record back to the cache (hook point: the
        sweep server's runner overrides this — its execution engine has
        already admitted the record exactly once)."""
        if self.cache is not None:
            self.cache.store(key, record)

    def _execute(self, cells: List[SweepCell], digests: List[str],
                 pending: List[int], counts: Dict[str, int],
                 ) -> Tuple[bool, Iterable[Tuple[int, dict]]]:
        """Run the un-cached cells; returns ``(pooled, records)``.

        ``records`` yields ``(plan_index, record)`` as the work
        completes, so the caller admits and journals them at once:
        in-process, each cell as it completes, and a crash mid-plan
        loses at most the in-flight cell; pooled, each chunk's records
        as soon as that chunk and every chunk submitted before it have
        finished, and a crash loses at most the chunks not yet yielded.
        Each chunk's counters are added to ``counts`` (complete once
        ``records`` is exhausted).
        """
        if not pending:
            return False, ()

        # Kernel-affine grouping: one chunk per identity digest, chunks
        # and their members both in plan order.
        groups: Dict[str, List[int]] = {}
        for index in pending:
            groups.setdefault(digests[index], []).append(index)

        # In-process fast path: nothing to gain from a pool when the
        # effective job count is 1 (requested, or clamped to the host's
        # schedulable cores), the remainder is smaller than it, or it
        # spans one kernel.  An existing pool (warm from an earlier plan,
        # or supplied by the caller) is always used: its workers hold
        # warm golden memos.
        effective = self.effective_jobs
        if self.pool is None and (effective == 1
                                  or len(pending) < effective
                                  or len(groups) == 1):
            return False, run_chunk(
                ((index, cells[index], digests[index]) for index in pending),
                counts)
        return True, self._execute_pooled(cells, digests, groups, counts)

    def _execute_pooled(self, cells: List[SweepCell], digests: List[str],
                        groups: Dict[str, List[int]],
                        counts: Dict[str, int]):
        """Pooled execution: one task per kernel so each worker derives
        (or memo-hits) that kernel's golden run exactly once.  Chunks are
        submitted by cell count, largest first, ties in plan order.  The
        key is cell count, not cost: chunks of equal size, such as E1's
        14 five-cell kernels, go in plan order whatever their simulation
        cost.  Chunks are never split — that would re-introduce
        redundant golden runs.  Streams over :meth:`WorkerPool.stream`:
        each chunk's records are yielded while later chunks still run,
        chunk by chunk in submission order, so the journal's line order
        does not depend on which worker finishes first.
        """
        shared: Dict[int, KernelInstance] = {}
        chunks = [[(index, self._pruned(cells[index], shared))
                   for index in members]
                  for members in groups.values()]
        chunks.sort(key=lambda chunk: (-len(chunk), chunk[0][0]))
        # Chunk labels: the identity digest every member shares — on
        # pool exhaustion they name the lost kernels precisely.
        chunk_digests = [digests[chunk[0][0]] for chunk in chunks]
        if self.pool is None:
            self.pool = WorkerPool(self.effective_jobs)
        for _, payload in self.pool.stream(run_cell_chunk, chunks,
                                           labels=chunk_digests):
            add_counts(counts, payload["counts"])
            yield from payload["records"]

    @staticmethod
    def _pruned(cell: SweepCell,
                shared: Dict[int, KernelInstance]) -> SweepCell:
        """A copy whose instance drops the golden memo (lean pickles).

        ``shared`` maps ``id(original instance)`` to its pruned copy so
        cells of one kernel keep *sharing* one instance object — the
        pool pickles each chunk's program exactly once.
        """
        instance = shared.get(id(cell.instance))
        if instance is None:
            instance = dataclasses.replace(cell.instance)
            shared[id(cell.instance)] = instance
        return SweepCell(instance, cell.point, dict(cell.overrides),
                         cell.base)

    # -- metrics --------------------------------------------------------

    def _merge_record_stats(self, record: dict) -> None:
        """Fold one record's counters into :attr:`merged_stats` — every
        cell a plan produced counts, as in :meth:`run_plan`."""
        self.merged_stats.merge(
            _counters_from_dict(SimStats, record["result"]["stats"]))

    def _account_plan(self, counts: Dict[str, int], cells: int,
                      pooled: bool, wall: float) -> None:
        counts["plans_run"] = 1
        add_counts(self.totals, counts)
        self.wall_seconds += wall
        self.last_metrics = SweepMetrics(
            cells=cells, wall_seconds=wall, pooled=pooled,
            **with_pool_counts(counts, self.pool))
        self._write_session_metrics()

    def _write_session_metrics(self) -> None:
        """Drop this process's session shard next to the cache shards.

        Best-effort and never content-addressed: ``cli cache stats``
        merges the shards back to show session redundancy counters.
        Per-process naming (``session.<pid>.json``) is what lets several
        runners share one cache root without clobbering each other.
        """
        if self.cache is not None:
            write_session_shard(self.cache.root,
                                with_pool_counts(self.totals, self.pool),
                                self.wall_seconds,
                                self.last_metrics.as_dict())

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (if this runner created one)."""
        if self._owns_pool and self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- single-cell conveniences --------------------------------------

    def run_point(self, instance: KernelInstance, point: Optional[str],
                  base: Optional[MachineConfig] = None,
                  **overrides) -> CellResult:
        plan = SweepPlan()
        plan.add(instance, point, base, **overrides)
        return self.run_plan(plan)[0]

    def run_points(self, instance: KernelInstance,
                   points: Optional[Iterable[str]] = None,
                   base: Optional[MachineConfig] = None,
                   **overrides) -> Dict[str, CellResult]:
        points = tuple(points or POINT_ORDER)
        plan = SweepPlan()
        indices = plan.add_points(instance, points, base, **overrides)
        results = self.run_plan(plan)
        return {point: results[i] for point, i in indices.items()}

    # -- reporting ------------------------------------------------------

    def summary(self) -> str:
        totals = with_pool_counts(self.totals, self.pool)
        executed = totals["cells_executed"]
        parts = [f"{executed} simulated",
                 f"{totals['cells_from_cache']} from cache"]
        if totals["cells_elided"]:
            parts.insert(1, f"{totals['cells_elided']} elided")
        if self.cache is not None:
            s = self.cache.session
            parts.append(f"cache {s.hits} hits / {s.misses} misses"
                         + (f" / {s.corrupt} corrupt" if s.corrupt else ""))
        parts.append(f"{self.merged_stats.cycles} cycles simulated")
        if self.wall_seconds > 0:
            parts.append(f"{executed / self.wall_seconds:.1f} "
                         "simulated cells/s")
        if totals["kernels_executed"]:
            parts.append("golden runs/kernel {:.2f}".format(
                totals["golden_fresh_runs"] / totals["kernels_executed"]))
        if self.pool is not None:
            parts.append(f"pool {totals['pool_spinups']} spinups / "
                         f"{totals['pool_reuses']} reuses")
        return ", ".join(parts)
