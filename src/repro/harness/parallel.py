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
3. admitting fresh results to the cache.

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
import json
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
from .pool import (GOLDEN_STORE_COUNTS, SweepMetrics, WorkerPool,
                   configure_golden_store, golden_for, identity_digests,
                   run_cell_chunk)
from .runner import POINT_ORDER
from .sweep import SweepCell, SweepPlan

#: Legacy single-writer session-metrics name.  Runners now write
#: per-process ``session.<pid>.json`` shards (two runners sharing a
#: cache root must not clobber each other's counters — last-writer-wins
#: silently lost whole sessions); the legacy name is still *read* by
#: :func:`merge_session_metrics` so old roots keep reporting.
SESSION_METRICS_FILE = "session.json"

#: Session-shard counters that sum across processes when merging.
_SESSION_SUM_KEYS = ("plans_run", "cells_executed", "cells_from_cache",
                     "kernels_executed", "golden_fresh_runs",
                     "golden_memo_hits", "pool_spinups", "pool_reuses",
                     "specialize_hits", "specialize_misses",
                     "fu_work_issued", "fu_work_committed",
                     "squashed_executions", "wave_operand_sends",
                     "epoch_rollbacks", "epoch_rollback_depth",
                     "cells_elided", "representative_runs",
                     "elision_fallbacks", "plan_cache_hits",
                     "plan_cache_misses", "golden_store_hits")

#: Block-plan counters lifted from executed cells' SimStats (cached
#: cells are excluded — they did no plan work in this session, and their
#: recorded counters describe whichever run produced them).
_SPECIALIZE_KEYS = ("specialize_hits", "specialize_misses")

#: Work-attribution counters lifted from executed cells' SimStats.
#: Unlike the specialize keys these describe the *simulated machine*
#: (issued vs. committed vs. squashed FU work, wave-2+ operand traffic,
#: epoch rollbacks), so they sum over executed cells only — the same
#: session-scoping rule as ``_SPECIALIZE_KEYS``.
_WORK_KEYS = ("fu_work_issued", "fu_work_committed",
              "squashed_executions", "wave_operand_sends",
              "epoch_rollbacks", "epoch_rollback_depth")

#: Cross-point elision counters per plan (repro.harness.elide).
_ELIDE_KEYS = ("elided", "representatives", "fallbacks")

#: Persistent plan/golden store counters per plan.
_PLANSTORE_KEYS = ("plan_cache_hits", "plan_cache_misses",
                   "golden_store_hits")


def session_shard_path(root: str, pid: Optional[int] = None) -> str:
    """This process's (or ``pid``'s) session-metrics shard file."""
    return os.path.join(root, f"session.{pid or os.getpid()}.json")


def session_shard_files(root: str) -> List[str]:
    """Every session shard under ``root`` (including the legacy name),
    skipping in-flight ``*.tmp.*`` writer files."""
    out = []
    if not os.path.isdir(root):
        return out
    for name in sorted(os.listdir(root)):
        if (name.startswith("session.") and name.endswith(".json")
                and ".tmp." not in name):
            out.append(os.path.join(root, name))
    return out


def write_session_shard(root: str, payload: dict) -> None:
    """Atomically write this process's session-metrics shard.

    Best-effort: metrics must never fail a sweep.
    """
    try:
        os.makedirs(root, exist_ok=True)
        path = session_shard_path(root)
        tmp = path + f".tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
        os.replace(tmp, path)
    except OSError:
        pass


def merge_session_metrics(root: str) -> Optional[dict]:
    """Merge every per-process session shard under ``root``.

    Counter keys sum across shards; ``last_plan`` comes from the most
    recently written shard.  Returns None when no shard parses — the
    consumer (``cli cache stats``, the server's ``/metrics``) then just
    omits the section.
    """
    merged: Dict[str, object] = {key: 0 for key in _SESSION_SUM_KEYS}
    wall = 0.0
    last_plan, last_mtime = None, -1.0
    shards = 0
    for path in session_shard_files(root):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            mtime = os.path.getmtime(path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        shards += 1
        for key in _SESSION_SUM_KEYS:
            value = payload.get(key, 0)
            if isinstance(value, (int, float)):
                merged[key] += int(value)
        seconds = payload.get("wall_seconds", 0.0)
        if isinstance(seconds, (int, float)):
            wall += float(seconds)
        if mtime > last_mtime and isinstance(payload.get("last_plan"),
                                             dict):
            last_mtime, last_plan = mtime, payload["last_plan"]
    if not shards:
        return None
    merged["wall_seconds"] = round(wall, 6)
    kernels = merged["kernels_executed"]
    merged["golden_runs_per_kernel"] = (
        round(merged["golden_fresh_runs"] / kernels, 4) if kernels
        else 0.0)
    merged["shards"] = shards
    merged["last_plan"] = last_plan
    return merged


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
                 write_session_metrics: bool = True,
                 journal: bool = False):
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        #: When False, the runner never writes its session shard — the
        #: sweep server aggregates across runners and writes one shard
        #: per server process instead.
        self.write_session_metrics = write_session_metrics
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
        # Attach the persistent plan/golden stores to the cache root
        # *before* any pool forks, so workers inherit the roots — and
        # detach them when this runner has no cache, so an uncached
        # session never reads a previous session's stores.
        from ..uarch.specialize import configure_plan_store
        configure_plan_store(cache.root if cache is not None else None)
        configure_golden_store(cache.root if cache is not None else None)
        #: Counters merged across every cell this runner has produced
        #: (cached or fresh) — the whole-session aggregate.
        self.merged_stats = SimStats()
        self.cells_executed = 0
        self.cells_from_cache = 0
        #: Cross-point elision session totals (repro.harness.elide).
        self.cells_elided = 0
        self.representative_runs = 0
        self.elision_fallbacks = 0
        #: Persistent plan/golden store session totals.
        self.planstore_totals: Dict[str, int] = \
            dict.fromkeys(_PLANSTORE_KEYS, 0)
        #: The persistent pool; created lazily on the first plan that
        #: needs one, then reused until :meth:`close`.
        self.pool = pool
        self._owns_pool = pool is None
        #: Session-level redundancy accounting (across all plans).
        self.plans_run = 0
        self.wall_seconds = 0.0
        self.kernels_executed = 0
        self.golden_fresh = 0
        self.golden_memo_hits = 0
        self.pool_reuses = 0
        #: Block-plan activity summed over *executed* cells.
        self.specialize_hits = 0
        self.specialize_misses = 0
        self._plan_specialize: Dict[str, int] = \
            dict.fromkeys(_SPECIALIZE_KEYS, 0)
        #: Work attribution summed over *executed* cells (session total
        #: and the per-plan scratch consumed by :meth:`_account_plan`).
        self.work_totals: Dict[str, int] = dict.fromkeys(_WORK_KEYS, 0)
        self._plan_work: Dict[str, int] = dict.fromkeys(_WORK_KEYS, 0)
        #: Metrics of the most recent :meth:`run_plan` call.
        self.last_metrics: Optional[SweepMetrics] = None

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

        self._plan_specialize = dict.fromkeys(_SPECIALIZE_KEYS, 0)
        self._plan_work = dict.fromkeys(_WORK_KEYS, 0)
        for index, record in self._execute(cells, digests, pending):
            forwarded = record.get("forwarded_from")
            self._admit(keys[index], record)
            if not forwarded:
                # Forwarded records replay the representative's counters;
                # folding them in would double-count its work.
                self._note_cell_stats(record)
            if journal is not None:
                journal.record(index, keys[index],
                               "forwarded" if forwarded else "executed")
            results[index] = result_from_record(record, from_cache=False)

        for result in results:
            self.merged_stats.merge(result.stats)
            if result.from_cache:
                self.cells_from_cache += 1
            elif result.forwarded_from:
                self.cells_elided += 1
            else:
                self.cells_executed += 1
        self._account_plan(len(cells),
                           len(pending) - self._plan_elide["elided"],
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

        executed = 0
        forwarded_cells = 0
        self._plan_specialize = dict.fromkeys(_SPECIALIZE_KEYS, 0)
        self._plan_work = dict.fromkeys(_WORK_KEYS, 0)
        for index, record in self._execute(cells, digests, owned):
            forwarded = record.get("forwarded_from")
            self._admit(keys[index], record)
            self._merge_record_stats(record)
            if forwarded:
                forwarded_cells += 1
            else:
                self._note_cell_stats(record)
                executed += 1
            if journal is not None:
                journal.record(index, keys[index],
                               "forwarded" if forwarded else "executed")
        self.cells_executed += executed
        self.cells_elided += forwarded_cells
        self.cells_from_cache += len(cached)
        self._account_plan(len(cells), executed,
                           time.perf_counter() - started)
        return {
            "plan": journal.digest if journal is not None
            else plan_digest(keys),
            "cells": len(cells),
            "from_cache": len(cached),
            "executed": executed,
            "elided": forwarded_cells,
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
                 pending: List[int]) -> Iterable[Tuple[int, dict]]:
        """Run the un-cached cells; yields ``(plan_index, record)``.

        In-process, each cell is yielded as it completes, so the caller
        admits and journals it at once: a crash mid-plan loses at most
        the in-flight cell.  Pooled, :meth:`WorkerPool.run` returns only
        after every chunk has finished, so nothing is yielded before
        then: a crash mid-plan loses every pooled record of the plan
        (finished chunks re-execute on resume).  Also fills the per-plan
        redundancy counters consumed by :meth:`_account_plan` (complete
        once the iterator is exhausted).
        """
        self._plan_golden_fresh = 0
        self._plan_golden_hits = 0
        self._plan_dedup_hits = 0
        self._plan_pooled = False
        self._plan_elide = dict.fromkeys(_ELIDE_KEYS, 0)
        self._plan_planstore = dict.fromkeys(_PLANSTORE_KEYS, 0)
        if not pending:
            self._plan_kernels = 0
            return iter(())

        # Kernel-affine grouping: one chunk per identity digest, chunks
        # and their members both in plan order.
        groups: Dict[str, List[int]] = {}
        for index in pending:
            groups.setdefault(digests[index], []).append(index)
        self._plan_kernels = len(groups)

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
            return self._execute_inproc(cells, digests, pending)
        return self._execute_pooled(cells, digests, groups)

    def _execute_inproc(self, cells: List[SweepCell], digests: List[str],
                        pending: List[int]):
        """In-process execution, one ``(index, record)`` per yield."""
        from ..uarch.specialize import PLAN_STORE_COUNTS
        arenas: Dict[int, dict] = {}
        plan_hits0 = PLAN_STORE_COUNTS["hits"]
        plan_miss0 = PLAN_STORE_COUNTS["misses"]
        golden_store0 = GOLDEN_STORE_COUNTS["hits"]

        def execute(index, cell, config):
            golden, fresh = golden_for(cell.instance, digests[index])
            if fresh:
                self._plan_golden_fresh += 1
            else:
                self._plan_golden_hits += 1
            # One frame arena per program *object* (identity, not
            # digest): frames parked by one machine point are reused
            # by the kernel's next point, and a frame's block
            # references always belong to the running program.
            arena = arenas.setdefault(id(cell.instance.program), {})
            return execute_cell(cell, golden=golden, frame_arena=arena,
                                config=config)

        yield from elide_pairs(
            ((index, cells[index], digests[index]) for index in pending),
            execute, self._plan_elide)
        plan = self._plan_planstore
        plan["plan_cache_hits"] += PLAN_STORE_COUNTS["hits"] - plan_hits0
        plan["plan_cache_misses"] += \
            PLAN_STORE_COUNTS["misses"] - plan_miss0
        plan["golden_store_hits"] += \
            GOLDEN_STORE_COUNTS["hits"] - golden_store0

    def _execute_pooled(self, cells: List[SweepCell], digests: List[str],
                        groups: Dict[str, List[int]]):
        """Pooled execution: one task per kernel so each worker derives
        (or memo-hits) that kernel's golden run exactly once.  Chunks are
        submitted by cell count, largest first, ties in plan order.  The
        key is cell count, not cost: chunks of equal size, such as E1's
        14 five-cell kernels, go in plan order whatever their simulation
        cost.  Chunks are never split — that would re-introduce
        redundant golden runs.  Yields the records only once the whole
        pool run has returned, chunk by chunk in submission order — not
        as each chunk completes.
        """
        shared: Dict[int, KernelInstance] = {}
        chunks = [[(index, self._pruned(cells[index], shared))
                   for index in members]
                  for members in groups.values()]
        chunks.sort(key=lambda chunk: (-len(chunk), chunk[0][0]))
        # Chunk labels: the identity digest every member shares — on
        # pool exhaustion they name the lost kernels precisely.
        chunk_digests = [digests[chunk[0][0]] for chunk in chunks]
        self._plan_pooled = True
        if self.pool is None:
            self.pool = WorkerPool(self.effective_jobs)
        if self.pool.warm:
            self.pool_reuses += 1
        for payload in self.pool.run(run_cell_chunk, chunks,
                                     labels=chunk_digests):
            self._plan_golden_fresh += payload["golden_fresh"]
            self._plan_golden_hits += payload["golden_hits"]
            self._plan_elide["elided"] += payload.get("elided", 0)
            self._plan_elide["representatives"] += \
                payload.get("representatives", 0)
            self._plan_elide["fallbacks"] += payload.get("fallbacks", 0)
            for key, value in payload.get("planstore", {}).items():
                if key in self._plan_planstore:
                    self._plan_planstore[key] += int(value)
            for index, record in payload["records"]:
                yield index, record

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

    def _note_cell_stats(self, record: dict) -> None:
        """Fold one executed cell's block-plan and work-attribution
        counters into the per-plan sums (consumed by
        :meth:`_account_plan`)."""
        stats = record["result"]["stats"]
        plan = self._plan_specialize
        for key in _SPECIALIZE_KEYS:
            plan[key] += int(stats.get(key, 0))
        work = self._plan_work
        for key in _WORK_KEYS:
            work[key] += int(stats.get(key, 0))

    def _account_plan(self, cells: int, executed: int,
                      wall: float) -> None:
        kernels = self._plan_kernels
        fresh = self._plan_golden_fresh
        spec = self._plan_specialize
        work = self._plan_work
        elide = getattr(self, "_plan_elide", None) \
            or dict.fromkeys(_ELIDE_KEYS, 0)
        planstore = getattr(self, "_plan_planstore", None) \
            or dict.fromkeys(_PLANSTORE_KEYS, 0)
        self.plans_run += 1
        self.wall_seconds += wall
        self.kernels_executed += kernels
        self.golden_fresh += fresh
        self.golden_memo_hits += self._plan_golden_hits
        self.specialize_hits += spec["specialize_hits"]
        self.specialize_misses += spec["specialize_misses"]
        self.representative_runs += elide["representatives"]
        self.elision_fallbacks += elide["fallbacks"]
        for key in _PLANSTORE_KEYS:
            self.planstore_totals[key] += planstore[key]
        for key in _WORK_KEYS:
            self.work_totals[key] += work[key]
        self.last_metrics = SweepMetrics(
            cells=cells,
            executed=executed,
            from_cache=cells - executed - elide["elided"],
            wall_seconds=wall,
            # Honest throughput: only *simulated* cells count; elided
            # and cached cells are broken out in their own fields.
            cells_per_sec=executed / wall if wall > 0 else 0.0,
            kernels_executed=kernels,
            golden_fresh_runs=fresh,
            golden_memo_hits=self._plan_golden_hits,
            golden_runs_per_kernel=fresh / kernels if kernels else 0.0,
            pooled=self._plan_pooled,
            pool_spinups=self.pool.spinups if self.pool else 0,
            pool_reuses=self.pool_reuses,
            inflight_dedup_hits=getattr(self, "_plan_dedup_hits", 0),
            specialize_hits=spec["specialize_hits"],
            specialize_misses=spec["specialize_misses"],
            fu_work_issued=work["fu_work_issued"],
            fu_work_committed=work["fu_work_committed"],
            squashed_executions=work["squashed_executions"],
            wave_operand_sends=work["wave_operand_sends"],
            epoch_rollbacks=work["epoch_rollbacks"],
            epoch_rollback_depth=work["epoch_rollback_depth"],
            elided_cells=elide["elided"],
            representative_runs=elide["representatives"],
            elision_fallbacks=elide["fallbacks"],
            plan_cache_hits=planstore["plan_cache_hits"],
            plan_cache_misses=planstore["plan_cache_misses"],
            golden_store_hits=planstore["golden_store_hits"],
        )
        self._write_session_metrics()

    def session_payload(self) -> dict:
        """This runner's cumulative session counters, shard-schema shaped
        (the same keys :func:`merge_session_metrics` sums)."""
        return {
            "plans_run": self.plans_run,
            "cells_executed": self.cells_executed,
            "cells_from_cache": self.cells_from_cache,
            "wall_seconds": round(self.wall_seconds, 6),
            "kernels_executed": self.kernels_executed,
            "golden_fresh_runs": self.golden_fresh,
            "golden_memo_hits": self.golden_memo_hits,
            "golden_runs_per_kernel": round(
                self.golden_fresh / self.kernels_executed, 4)
                if self.kernels_executed else 0.0,
            "pool_spinups": self.pool.spinups if self.pool else 0,
            "pool_reuses": self.pool_reuses,
            "specialize_hits": self.specialize_hits,
            "specialize_misses": self.specialize_misses,
            **{key: self.work_totals[key] for key in _WORK_KEYS},
            "cells_elided": self.cells_elided,
            "representative_runs": self.representative_runs,
            "elision_fallbacks": self.elision_fallbacks,
            **{key: self.planstore_totals[key] for key in _PLANSTORE_KEYS},
            "last_plan": self.last_metrics.as_dict()
            if self.last_metrics else None,
        }

    def _write_session_metrics(self) -> None:
        """Drop this process's session shard next to the cache shards.

        Best-effort and never content-addressed: ``cli cache stats``
        merges the shards back to show session redundancy counters.
        Per-process naming (``session.<pid>.json``) is what lets several
        runners share one cache root without clobbering each other.
        """
        if self.cache is None or not self.write_session_metrics:
            return
        write_session_shard(self.cache.root, self.session_payload())

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
        parts = [f"{self.cells_executed} simulated",
                 f"{self.cells_from_cache} from cache"]
        if self.cells_elided:
            parts.insert(1, f"{self.cells_elided} elided")
        if self.cache is not None:
            s = self.cache.session
            parts.append(f"cache {s.hits} hits / {s.misses} misses"
                         + (f" / {s.corrupt} corrupt" if s.corrupt else ""))
        parts.append(f"{self.merged_stats.cycles} cycles simulated")
        if self.wall_seconds > 0:
            parts.append(f"{self.cells_executed / self.wall_seconds:.1f} "
                         "simulated cells/s")
        if self.kernels_executed:
            parts.append("golden runs/kernel "
                         f"{self.golden_fresh / self.kernels_executed:.2f}")
        if self.pool is not None:
            parts.append(f"pool {self.pool.spinups} spinups / "
                         f"{self.pool_reuses} reuses")
        return ", ".join(parts)
