"""Sweep-as-a-service: a long-lived async simulation server.

``SweepServer`` is an asyncio HTTP/JSON daemon that owns the persistent
:class:`~repro.harness.pool.WorkerPool` and the shared
:class:`~repro.harness.cache.ResultCache` and serves sweep requests:

* ``POST /plans`` — submit a plan: either a grid (``kernels`` x
  ``points`` x ``overrides``, or an explicit ``cells`` list) or a named
  experiment (``{"experiment": "e1", "fast": true}``) that renders the
  exact table the CLI would.
* ``GET /plans/<id>`` — poll status with per-cell progress and the
  plan's :class:`~repro.harness.metrics.SweepMetrics`.
* ``GET /plans/<id>/table`` — fetch the finished table (text/plain,
  byte-identical to an in-process run of the same request).
* ``GET /healthz`` / ``GET /metrics`` — liveness and counters,
  including the merged per-process session shards of every runner that
  ever used this cache root.

Core mechanisms: work is **deduplicated** (two requests for the same
``(identity_digest, config)`` cell share one in-flight execution keyed
on the cache key), **batched** (cells submitted within one batching
window are regrouped into kernel-affine chunks before pool submission,
so concurrent plans share golden runs), and **drained gracefully** on
SIGTERM (new plans are refused, in-flight chunks finish, session
metrics are persisted, then the process exits).  A request's
``X-Tenant`` header only labels its plan's status.

The protocol is deliberately minimal HTTP/1.1 (one request per
connection) so the server needs nothing beyond the standard library.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..stats.report import Table
from ..workloads.registry import KERNELS
# cache_key is not called here (the runner's probe derives each key
# once), but perfbench/spans.py times it under this module's name.
from .cache import ResultCache, cache_key  # noqa: F401
from .experiments import EXPERIMENTS, run_experiment
from .metrics import (add_counts, count_cell, counter_sections,
                      merge_session_metrics, new_counts, with_pool_counts,
                      write_session_shard)
from .parallel import ParallelRunner
from .pool import PoolExhaustedError, WorkerPool, run_cell_chunk
from .runner import POINT_ORDER, STANDARD_POINTS
from .sweep import SweepPlan

#: Largest accepted request body (a plan is a few KB of JSON).
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Client error: reported as 400 with the message as ``error``."""


@dataclass
class ServerConfig:
    """Tunables for one :class:`SweepServer` process."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0: let the OS pick a free port
    jobs: int = 0                    # 0: one worker per CPU
    cache_dir: str = ".repro-cache"
    max_respawns: int = 2
    #: Seconds submissions are coalesced before kernel-affine chunking.
    batch_window: float = 0.02
    #: After the last in-flight plan finishes during drain, keep serving
    #: GETs this long so clients can collect their tables.
    drain_linger: float = 1.0
    #: Concurrent plan-evaluation threads.
    max_plans: int = 8


class PlanJob:
    """One submitted plan: request, per-cell progress, and the result.

    Cell states move ``pending -> queued -> running -> done`` (or
    ``cached`` straight away, or ``failed``).  Mutated from both the
    plan-evaluation thread and the event loop, hence the lock.
    """

    def __init__(self, plan_id: str, tenant: str, request: dict):
        self.id = plan_id
        self.tenant = tenant
        self.request = request
        self.state = "queued"        # queued|running|done|failed
        self.error: Optional[str] = None
        self.table: Optional[str] = None
        self.table_digest: Optional[str] = None
        self.created = time.time()
        self.finished: Optional[float] = None
        self.metrics: Optional[dict] = None
        self._cells: List[dict] = []
        self._lock = threading.Lock()

    def set_cells(self, labels: Sequence[str],
                  pending: Sequence[int]) -> None:
        pending_set = set(pending)
        with self._lock:
            self._cells = [
                {"label": label,
                 "state": "pending" if i in pending_set else "cached"}
                for i, label in enumerate(labels)]

    def cell_state(self, index: int, state: str) -> None:
        with self._lock:
            if 0 <= index < len(self._cells):
                self._cells[index]["state"] = state

    def cell_counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {"total": len(self._cells)}
            for cell in self._cells:
                state = cell["state"]
                counts[state] = counts.get(state, 0) + 1
        return counts

    def cells(self) -> List[dict]:
        with self._lock:
            return [dict(cell) for cell in self._cells]

    def finish(self, table: str) -> None:
        self.table = table
        self.table_digest = hashlib.sha256(table.encode()).hexdigest()
        self.state = "done"
        self.finished = time.time()

    def fail(self, error: str) -> None:
        self.error = error
        self.state = "failed"
        self.finished = time.time()

    def status(self) -> dict:
        end = self.finished if self.finished is not None else time.time()
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "error": self.error,
            "elapsed_seconds": round(end - self.created, 3),
            "cells": self.cell_counts(),
            "table_digest": self.table_digest,
            "metrics": self.metrics,
        }


@dataclass
class _CellTask:
    """One cell on its way through the dedup/batch/pool engine."""

    job: PlanJob
    index: int                       # plan index (for progress updates)
    cell: object                     # SweepCell
    digest: str                      # kernel identity digest
    key: str                         # full cache key (dedup identity)
    future: asyncio.Future = field(default=None)  # set by the scheduler


class _EngineRunner(ParallelRunner):
    """A runner whose execution stage routes through the server engine.

    ``run_plan`` keeps its normal shape — probe the cache, execute the
    remainder, admit, account — but the remainder is handed to the
    server's dedup/batch scheduler instead of a private pool, so cells
    from concurrent plans share in-flight executions and chunks.  Runs
    on a plan-evaluation thread; the engine runs on the event loop.
    """

    def __init__(self, server: "SweepServer", job: PlanJob):
        super().__init__(jobs=server.pool.jobs, cache=server.cache,
                         pool=server.pool)
        self._server = server
        self._job = job

    def _admit(self, key, record):
        # The engine already stored the record (exactly once per
        # executed cell, even when several plans share it).
        pass

    def _execute(self, cells, digests, keys, pending, counts):
        self._job.set_cells([cell.label for cell in cells], pending)
        self._server.loop.call_soon_threadsafe(
            self._server._count_request, len(cells),
            counts["cells_from_cache"])
        if not pending:
            return False, ()
        future = asyncio.run_coroutine_threadsafe(
            self._server._schedule(self._job, cells, digests, keys,
                                   pending),
            self._server.loop)
        records, joined = future.result()
        # The plan's buckets: cells that joined another plan's execution
        # in flight, and the cells it enqueued itself.  Chunk-level
        # facts (golden runs, elision groups, stores) are shared by every
        # plan in the chunk, so only the server counts them.
        counts["dedup_inflight_hits"] += len(joined)
        for index, record in records:
            if index not in joined:
                count_cell(counts, record)
        return True, records

    def _write_session_metrics(self):
        # This process's one shard is the server's: hand it the plan.
        self._server.loop.call_soon_threadsafe(self._server._absorb_plan,
                                               self.last_metrics)


def expand_grid(request: dict) -> SweepPlan:
    """Build the SweepPlan a grid-mode request describes.

    ``cells`` (a list of ``{"kernel", "point", "scale", "overrides"}``)
    wins over the ``kernels`` x ``points`` cross product; ``overrides``
    at the top level apply to every cross-product cell.  ``fast``
    selects test scales (the default) vs evaluation scales; an explicit
    per-cell ``scale`` overrides both.
    """
    fast = bool(request.get("fast", True))
    built: Dict[Tuple[str, int], object] = {}

    def instance(name: str, scale: int):
        cache_key_ = (name, scale)
        if cache_key_ not in built:
            spec = KERNELS[name]
            if scale:
                built[cache_key_] = spec.build(scale)
            else:
                built[cache_key_] = (spec.build_test() if fast
                                     else spec.build_default())
        return built[cache_key_]

    specs = request.get("cells")
    if specs is None:
        shared = dict(request.get("overrides") or {})
        specs = [{"kernel": kernel, "point": point, "overrides": shared}
                 for kernel in request.get("kernels", [])
                 for point in request.get("points", POINT_ORDER)]
    plan = SweepPlan()
    for spec in specs:
        if not isinstance(spec, dict) or "kernel" not in spec:
            raise _BadRequest("each cell needs at least a 'kernel'")
        inst = instance(spec["kernel"], int(spec.get("scale") or 0))
        overrides = dict(spec.get("overrides") or {})
        plan.add(inst, spec.get("point"), **overrides)
    if not len(plan):
        raise _BadRequest("plan is empty: give 'kernels' (and 'points') "
                          "or an explicit 'cells' list")
    return plan


def render_grid_table(results) -> str:
    """Deterministic text table for grid-mode results (no cache/dedup
    dependent columns, so the bytes match any execution path)."""
    table = Table("SWEEP. per-cell timing results",
                  ["cell", "cycles", "IPC", "arch digest"])
    for result in results:
        table.add_row(result.label, result.stats.cycles,
                      result.stats.ipc, result.arch_digest[:16])
    return table.render()


class SweepServer:
    """The daemon.  ``serve_forever()`` blocks until drained."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        jobs = self.config.jobs or (os.cpu_count() or 1)
        self.pool = WorkerPool(max(1, jobs),
                               max_respawns=self.config.max_respawns)
        self.cache = ResultCache(self.config.cache_dir)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        self.draining = False
        self.started_at: Optional[float] = None
        #: Server events; the sweep counters are in :attr:`totals`.
        self.counters: Dict[str, int] = dict.fromkeys((
            "plans_submitted", "plans_completed", "plans_failed",
            "cells_requested", "batches", "chunks", "chunk_failures",
            "pool_exhausted"), 0)
        #: Session totals of the registered sweep counters
        #: (repro.harness.metrics): each executed chunk's counts once,
        #: each plan's cached cells as it starts, each in-flight join as
        #: it happens, and each finished plan in ``plans_run``.
        self.totals: Dict[str, int] = new_counts()
        self.wall_seconds = 0.0
        self.lost_digests: List[str] = []
        self._jobs: Dict[str, PlanJob] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._plan_tasks: Set[asyncio.Task] = set()
        self._work_tasks: Set[asyncio.Task] = set()
        self._last_plan: Optional[dict] = None
        self._plan_counter = itertools.count(1)
        self._serving = threading.Event()
        self._plan_executor = ThreadPoolExecutor(
            max_workers=self.config.max_plans, thread_name_prefix="plan")
        self._chunk_executor = ThreadPoolExecutor(
            max_workers=max(2, self.pool.jobs),
            thread_name_prefix="chunk")

    # -- lifecycle ------------------------------------------------------

    def serve_forever(self, port_file: Optional[str] = None,
                      install_signals: bool = True) -> int:
        """Run until drained (SIGTERM/SIGINT or :meth:`begin_drain`)."""
        loop = asyncio.new_event_loop()
        self.loop = loop
        try:
            loop.run_until_complete(
                self._startup(port_file, install_signals))
            loop.run_until_complete(self._stopped.wait())
            return 0
        finally:
            self._serving.clear()
            self._plan_executor.shutdown(wait=False)
            self._chunk_executor.shutdown(wait=False)
            self.pool.close()
            loop.close()

    async def _startup(self, port_file: Optional[str],
                       install_signals: bool) -> None:
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        self.started_at = time.time()
        self._batcher_task = self.loop.create_task(self._batcher())
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self.loop.add_signal_handler(sig, self.begin_drain)
                except (ValueError, RuntimeError, NotImplementedError,
                        OSError):
                    pass     # non-main thread or unsupported platform
        print(f"repro sweep server listening on "
              f"http://{self.config.host}:{self.port} "
              f"(pid {os.getpid()})", flush=True)
        if port_file:
            tmp = port_file + f".tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(str(self.port))
            os.replace(tmp, port_file)
        self._serving.set()

    def wait_until_serving(self, timeout: float = 30.0) -> bool:
        """Block (from another thread) until the socket is bound."""
        return self._serving.wait(timeout)

    def begin_drain(self) -> None:
        """Refuse new plans, finish in-flight work, then exit.

        Loop-thread only; use :meth:`request_shutdown` from others.
        """
        if self.draining:
            return
        self.draining = True
        self.loop.create_task(self._drain())

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (tests, embedding processes)."""
        self.loop.call_soon_threadsafe(self.begin_drain)

    async def _drain(self) -> None:
        while self._plan_tasks:
            await asyncio.wait(list(self._plan_tasks))
        if self.config.drain_linger > 0:
            await asyncio.sleep(self.config.drain_linger)
        self._persist_session()
        self._server.close()
        await self._server.wait_closed()
        self._batcher_task.cancel()
        for task in list(self._work_tasks):
            task.cancel()
        self._stopped.set()

    def _persist_session(self) -> None:
        """Write this server process's session shard (merged back by
        ``cli cache stats`` and ``/metrics``, alongside CLI runners)."""
        write_session_shard(self.cache.root,
                            with_pool_counts(self.totals, self.pool),
                            self.wall_seconds, self._last_plan)

    # -- plan admission -------------------------------------------------

    def _validate_request(self, request: dict) -> None:
        """Reject a malformed request (400) without building any
        program."""
        if "experiment" in request:
            name = request["experiment"]
            if name not in EXPERIMENTS:
                raise _BadRequest(f"unknown experiment {name!r}")
            self._check_kernels(request.get("kernels"))
            sample = request.get("sample")
            if sample is not None and (not isinstance(sample, int)
                                       or sample < 1):
                raise _BadRequest("'sample' must be a positive integer")
            return
        specs = request.get("cells")
        if specs is not None:
            if not isinstance(specs, list) or not specs:
                raise _BadRequest("'cells' must be a non-empty list")
            for spec in specs:
                if not isinstance(spec, dict) or "kernel" not in spec:
                    raise _BadRequest(
                        "each cell needs at least a 'kernel'")
                self._check_kernels([spec["kernel"]])
                point = spec.get("point")
                if point is not None and point not in STANDARD_POINTS:
                    raise _BadRequest(f"unknown point {point!r}")
            return
        kernels = request.get("kernels")
        if not kernels:
            raise _BadRequest("give 'experiment', 'kernels', or 'cells'")
        self._check_kernels(kernels)
        points = request.get("points", POINT_ORDER)
        if not isinstance(points, (list, tuple)) or not points:
            raise _BadRequest("'points' must be a non-empty list")
        for point in points:
            if point is not None and point not in STANDARD_POINTS:
                raise _BadRequest(f"unknown point {point!r}")

    @staticmethod
    def _check_kernels(kernels) -> None:
        if kernels is None:
            return
        if not isinstance(kernels, (list, tuple)):
            raise _BadRequest("'kernels' must be a list of names")
        unknown = [k for k in kernels if k not in KERNELS]
        if unknown:
            raise _BadRequest(
                f"unknown kernels: {', '.join(map(str, unknown))}")

    def _submit_plan(self, request: dict, headers: Dict[str, str]):
        if self.draining:
            return 503, {"error": "server is draining; not accepting "
                                  "new plans"}
        tenant = (headers.get("x-tenant") or request.get("tenant")
                  or "default")
        self._validate_request(request)
        job = PlanJob(f"plan-{next(self._plan_counter)}", str(tenant),
                      request)
        self._jobs[job.id] = job
        self.counters["plans_submitted"] += 1
        task = self.loop.create_task(self._drive_plan(job))
        self._plan_tasks.add(task)
        task.add_done_callback(self._plan_tasks.discard)
        return 202, {"id": job.id, "tenant": job.tenant,
                     "state": job.state}

    # -- plan execution -------------------------------------------------

    async def _drive_plan(self, job: PlanJob) -> None:
        job.state = "running"
        try:
            table = await self.loop.run_in_executor(
                self._plan_executor, self._run_plan_sync, job)
        except PoolExhaustedError as exc:
            self.counters["plans_failed"] += 1
            job.fail(f"worker pool exhausted; lost kernels: "
                     f"{', '.join(map(str, exc.unfinished))}")
        except _BadRequest as exc:
            self.counters["plans_failed"] += 1
            job.fail(f"bad plan: {exc}")
        except Exception as exc:            # report, never crash the loop
            self.counters["plans_failed"] += 1
            job.fail(f"{type(exc).__name__}: {exc}")
        else:
            self.counters["plans_completed"] += 1
            job.finish(table)
        self._persist_session()

    def _run_plan_sync(self, job: PlanJob) -> str:
        """Evaluate one plan on a worker thread; returns table text."""
        runner = _EngineRunner(self, job)
        request = job.request
        try:
            if "experiment" in request:
                text = run_experiment(
                    request["experiment"], bool(request.get("fast", True)),
                    runner, request.get("kernels"), request.get("sample"))
            else:
                results = runner.run_plan(expand_grid(request))
                text = render_grid_table(results)
        finally:
            if runner.last_metrics is not None:
                job.metrics = runner.last_metrics.as_dict()
        return text

    def _count_request(self, cells: int, from_cache: int) -> None:
        """Count a plan's cells as it starts executing, so a plan that
        fails or is still running shows in ``/metrics`` (loop thread,
        so plain additions are safe)."""
        self.counters["cells_requested"] += cells
        self.totals["cells_from_cache"] += from_cache

    def _absorb_plan(self, metrics) -> None:
        """Count one finished plan; its cells were counted as it
        started (loop thread)."""
        self.totals["plans_run"] += 1
        self.wall_seconds += metrics.wall_seconds
        self._last_plan = metrics.as_dict()

    # -- the dedup/batch engine (event loop) ----------------------------

    async def _schedule(self, job: PlanJob, cells, digests, keys, pending,
                        ) -> Tuple[List[Tuple[int, dict]], Set[int]]:
        """Schedule a plan's un-cached cells; returns
        ``([(plan_index, record), ...], joined)``, where ``joined`` holds
        the plan indices that joined an execution already in flight.
        ``keys`` are the cache keys the runner's probe derived."""
        joined: Set[int] = set()
        waiters = []
        for index in pending:
            cell = cells[index]
            key = keys[index]
            future = self._inflight.get(key)
            if future is not None:
                joined.add(index)
                self.totals["dedup_inflight_hits"] += 1
                job.cell_state(index, "queued")
            else:
                future = self.loop.create_future()
                self._inflight[key] = future
                future.add_done_callback(
                    functools.partial(self._uninflight, key))
                task = _CellTask(job, index, cell, digests[index], key,
                                 future)
                job.cell_state(index, "queued")
                await self._queue.put(task)
            waiters.append((index, future))
        records = []
        for index, future in waiters:
            try:
                record = await asyncio.shield(future)
            except Exception:
                job.cell_state(index, "failed")
                raise
            job.cell_state(index, "done")
            records.append((index, record))
        return records, joined

    def _uninflight(self, key: str, _future) -> None:
        self._inflight.pop(key, None)

    def _spawn_work(self, coro) -> None:
        task = self.loop.create_task(coro)
        self._work_tasks.add(task)
        task.add_done_callback(self._work_tasks.discard)

    async def _batcher(self) -> None:
        """Coalesce submissions for one batching window, then regroup
        them into kernel-affine chunks — cells of one kernel from any
        number of concurrent plans share one chunk and one golden run."""
        while True:
            batch = [await self._queue.get()]
            window = self.config.batch_window
            if window > 0:
                deadline = self.loop.time() + window
                while True:
                    remaining = deadline - self.loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(await asyncio.wait_for(
                            self._queue.get(), remaining))
                    except asyncio.TimeoutError:
                        break
            self.counters["batches"] += 1
            groups: Dict[str, List[_CellTask]] = {}
            for task in batch:
                groups.setdefault(task.digest, []).append(task)
            for digest, tasks in groups.items():
                self._spawn_work(self._run_chunk(digest, tasks))

    async def _run_chunk(self, digest: str,
                         tasks: List[_CellTask]) -> None:
        self.counters["chunks"] += 1
        shared: Dict[int, object] = {}
        chunk = [(slot, ParallelRunner._pruned(task.cell, shared))
                 for slot, task in enumerate(tasks)]
        for task in tasks:
            task.job.cell_state(task.index, "running")
        call = functools.partial(self.pool.run, run_cell_chunk, [chunk],
                                 labels=[digest])
        try:
            payloads = await self.loop.run_in_executor(
                self._chunk_executor, call)
        except Exception as exc:
            self.counters["chunk_failures"] += 1
            if isinstance(exc, PoolExhaustedError):
                self.counters["pool_exhausted"] += 1
                self.lost_digests.extend(exc.unfinished)
            for task in tasks:
                if not task.future.done():
                    task.future.set_exception(exc)
            return
        payload = payloads[0]
        add_counts(self.totals, payload["counts"])
        for slot, record in payload["records"]:
            task = tasks[slot]
            try:
                self.cache.store(task.key, record)
            except OSError:
                pass
            if not task.future.done():
                task.future.set_result(record)

    # -- metrics --------------------------------------------------------

    def metrics_payload(self) -> dict:
        pool, counters = self.pool, self.counters
        server = counter_sections(with_pool_counts(self.totals, pool))
        server["plans"].update(submitted=counters["plans_submitted"],
                               completed=counters["plans_completed"],
                               failed=counters["plans_failed"],
                               active=len(self._plan_tasks))
        server["cells"]["requested"] = counters["cells_requested"]
        server["pool"].update(jobs=pool.jobs,
                              broken_recoveries=pool.broken_recoveries,
                              tasks_run=pool.tasks_run)
        # The deleted on-disk plan and golden stores' hit counts.
        server["plan_store"] = {
            "golden_store_hits": 0,     # read by perfbench/workloads.py
            "plan_cache_hits": 0,       # read by perfbench/workloads.py
        }
        server.update(
            pid=os.getpid(),
            uptime_seconds=round(time.time() - self.started_at, 3)
            if self.started_at else 0.0,
            draining=self.draining,
            batches=counters["batches"],
            chunks=counters["chunks"],
            chunk_failures=counters["chunk_failures"],
            pool_exhausted=counters["pool_exhausted"],
            lost_digests=list(self.lost_digests))
        return {"server": server,
                "sessions": merge_session_metrics(self.cache.root)}

    # -- HTTP -----------------------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        status, payload, ctype = 500, {"error": "internal error"}, \
            "application/json"
        try:
            request = await self._read_request(reader)
            if request is not None:
                status, payload, ctype = self._route(*request)
        except _BadRequest as exc:
            status, payload, ctype = 400, {"error": str(exc)}, \
                "application/json"
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:            # never kill the acceptor
            status, payload = 500, \
                {"error": f"{type(exc).__name__}: {exc}"}
        body = (json.dumps(payload, sort_keys=True).encode()
                if isinstance(payload, (dict, list))
                else str(payload).encode())
        reason = _REASONS.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        try:
            writer.write(head.encode() + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            writer.close()

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    def _route(self, method: str, path: str, headers: Dict[str, str],
               body: bytes):
        json_type = "application/json"
        if path == "/healthz" and method == "GET":
            return 200, {"status": "draining" if self.draining
                         else "ok", "pid": os.getpid(),
                         "port": self.port}, json_type
        if path == "/metrics" and method == "GET":
            return 200, self.metrics_payload(), json_type
        if path == "/plans":
            if method == "POST":
                try:
                    request = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    raise _BadRequest(f"bad JSON body: {exc}") from None
                if not isinstance(request, dict):
                    raise _BadRequest("plan body must be a JSON object")
                status, payload = self._submit_plan(request, headers)
                return status, payload, json_type
            if method == "GET":
                return 200, {"plans": [job.status() for job
                                       in self._jobs.values()]}, \
                    json_type
            return 405, {"error": f"{method} not allowed"}, json_type
        if path.startswith("/plans/") and method == "GET":
            rest = path[len("/plans/"):]
            plan_id, _, tail = rest.partition("/")
            job = self._jobs.get(plan_id)
            if job is None:
                return 404, {"error": f"unknown plan {plan_id!r}"}, \
                    json_type
            if tail == "":
                status = job.status()
                status["cell_states"] = job.cells()
                return 200, status, json_type
            if tail == "table":
                if job.state == "done":
                    return 200, job.table, "text/plain; charset=utf-8"
                if job.state == "failed":
                    return 500, {"error": job.error}, json_type
                return 409, {"error": f"plan {plan_id} is "
                                      f"{job.state}"}, json_type
        return 404, {"error": f"no route for {method} {path}"}, \
            json_type
