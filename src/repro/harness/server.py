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

Core mechanisms: each plan runs on the CLI's runner, so its un-cached
cells go to the server's one worker pool as kernel-affine chunks and
each chunk's records are stored as the chunk finishes; work is
**deduplicated** across plans (a cell whose cache key another plan is
executing waits for that plan's record instead of running again); and
the server **drains gracefully** on SIGTERM (new plans are refused,
in-flight plans finish, session metrics are persisted, then the process
exits).  A request's ``X-Tenant`` header only labels its plan's status.

The protocol is deliberately minimal HTTP/1.1 (one request per
connection) so the server needs nothing beyond the standard library.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..stats.report import Table
from ..workloads.registry import KERNELS
# cache_key is not called here (the runner's probe derives each key
# once), but perfbench/spans.py times it under this module's name.
from .cache import ResultCache, cache_key  # noqa: F401
from .experiments import EXPERIMENTS, run_experiment
from .metrics import (CHUNK_NAMES, add_counts, counter_sections,
                      merge_session_metrics, new_counts, with_pool_counts,
                      write_session_shard)
from .parallel import ParallelRunner
# run_cell_chunk is not called here (the runner's pooled path submits
# the chunks), but perfbench/spans.py times it under this module's name.
from .pool import PoolExhaustedError, WorkerPool, run_cell_chunk  # noqa: F401
from .runner import POINT_ORDER, STANDARD_POINTS
from .sweep import SweepPlan

#: Largest accepted request body (a plan is a few KB of JSON).
MAX_BODY_BYTES = 1 << 20

#: Plans evaluated at once, each on its own thread; later plans wait
#: for a free thread.
MAX_PLANS = 8

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _BadRequest(Exception):
    """Client error: reported as 400 with the message as ``error``."""


@dataclass
class ServerConfig:
    """Deployment settings for one :class:`SweepServer` process."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0: let the OS pick a free port
    jobs: int = 0                    # 0: one worker per CPU
    cache_dir: str = ".repro-cache"
    #: After the last in-flight plan finishes during drain, keep serving
    #: GETs this long so clients can collect their tables.
    drain_linger: float = 1.0


class PlanJob:
    """One submitted plan: request, per-cell progress, and the result.

    A cell is ``cached`` when the probe found it, ``running`` from the
    time its plan submits or joins it until its record arrives, then
    ``done``; a cell still running when the plan fails is ``failed``.
    Mutated from both the plan-evaluation thread and the event loop,
    hence the lock.
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
                 "state": "running" if i in pending_set else "cached"}
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
        with self._lock:
            for cell in self._cells:
                if cell["state"] == "running":
                    cell["state"] = "failed"
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


class _ServedRunner(ParallelRunner):
    """The CLI's runner on the server's pool and cache, with in-flight
    dedup; runs on a plan-evaluation thread.

    Each pending cell first claims its cache key in the server's claim
    table (:meth:`SweepServer._claim`).  The cells this plan claimed
    run through :meth:`ParallelRunner._execute`; :meth:`_admit` stores
    each record, then settles its claim.  A cell whose key was already
    claimed, by another plan or an earlier cell of this one, joins that
    claim: once this plan's own chunks are done, it takes the owner's
    record and does not store it again.  Settling its own claims before
    waiting on a joined one keeps two plans that join each other's
    cells from waiting on each other.
    """

    def __init__(self, server: "SweepServer", job: PlanJob):
        super().__init__(jobs=server.pool.jobs, cache=server.cache,
                         pool=server.pool)
        self._server = server
        self._job = job
        #: This plan's unsettled claims: cache key -> the future its
        #: joiners wait on.
        self.claims: Dict[str, Future] = {}

    def _execute(self, cells, digests, keys, pending, counts):
        self._job.set_cells([cell.label for cell in cells], pending)
        own, joined = self._server._claim(self.claims, digests, keys,
                                          pending, counts)
        counts["dedup_inflight_hits"] += len(joined)
        chunk_counts = new_counts(CHUNK_NAMES)
        pooled, records = super()._execute(cells, digests, keys, own,
                                           chunk_counts)
        return pooled, self._records(records, chunk_counts, counts, joined)

    def _records(self, records, chunk_counts, counts, joined):
        """This plan's own records as its chunks finish, then each joined
        record as its owner settles it.  The pooled path adds a chunk's
        counters to ``chunk_counts`` before yielding its records; they
        move into ``counts`` and the server's totals with its first."""
        try:
            for index, record in records:
                if any(chunk_counts.values()):
                    self._server._add_totals(chunk_counts)
                    add_counts(counts, chunk_counts)
                    chunk_counts.update(new_counts(CHUNK_NAMES))
                self._job.cell_state(index, "done")
                yield index, record
        except Exception as exc:
            self._server._count_chunk_failure(exc)
            raise
        for index, claim in joined:
            record = claim.result()
            self._job.cell_state(index, "done")
            yield index, record

    def _admit(self, key, record):
        claim = self.claims.get(key)
        if claim is None:
            return              # joined: its owner stored the record
        super()._admit(key, record)
        # Settled only once stored: a store that raises leaves the claim
        # to fail with the plan.
        del self.claims[key]
        self._server._settle(key, claim, record)

    def _write_session_metrics(self):
        # This process's one shard is the server's: hand it the plan.
        self._server._absorb_plan(self.last_metrics)


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
        self.pool = WorkerPool(max(1, jobs))
        self.cache = ResultCache(self.config.cache_dir)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.port: Optional[int] = None
        self.draining = False
        self.started_at: Optional[float] = None
        #: Guards :attr:`counters`, :attr:`totals`, :attr:`wall_seconds`,
        #: :attr:`lost_digests` and the claim table: plan threads and
        #: the event loop both change them.
        self._lock = threading.Lock()
        #: Server events; the sweep counters are in :attr:`totals`.
        self.counters: Dict[str, int] = dict.fromkeys((
            "plans_submitted", "plans_completed", "plans_failed",
            "cells_requested", "batches", "chunks", "chunk_failures",
            "pool_exhausted"), 0)
        #: Session totals of the registered sweep counters
        #: (repro.harness.metrics): each executed chunk's counts once,
        #: in the plan that ran it, as the chunk's records arrive; each
        #: plan's cached cells and in-flight joins as it starts
        #: executing; and each finished plan in ``plans_run``.
        self.totals: Dict[str, int] = new_counts()
        self.wall_seconds = 0.0
        self.lost_digests: List[str] = []
        self._jobs: Dict[str, PlanJob] = {}
        #: The claim table: cache key -> the future that the plan
        #: executing that key settles with its record (or fails).
        self._claims: Dict[str, Future] = {}
        self._plan_tasks: Set[asyncio.Task] = set()
        self._last_plan: Optional[dict] = None
        self._plan_counter = itertools.count(1)
        self._serving = threading.Event()
        self._plan_executor = ThreadPoolExecutor(
            max_workers=MAX_PLANS, thread_name_prefix="plan")

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
            self.pool.close()
            loop.close()

    async def _startup(self, port_file: Optional[str],
                       install_signals: bool) -> None:
        self._stopped = asyncio.Event()
        self.started_at = time.time()
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
        self._stopped.set()

    def _persist_session(self) -> None:
        """Write this server process's session shard (merged back by
        ``cli cache stats`` and ``/metrics``, alongside CLI runners)."""
        with self._lock:
            totals = with_pool_counts(self.totals, self.pool)
            wall, last_plan = self.wall_seconds, self._last_plan
        write_session_shard(self.cache.root, totals, wall, last_plan)

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
        self._count("plans_submitted")
        task = self.loop.create_task(self._drive_plan(job))
        self._plan_tasks.add(task)
        task.add_done_callback(self._plan_tasks.discard)
        return 202, {"id": job.id, "tenant": job.tenant,
                     "state": job.state}

    # -- plan execution -------------------------------------------------

    async def _drive_plan(self, job: PlanJob) -> None:
        try:
            table = await self.loop.run_in_executor(
                self._plan_executor, self._run_plan_sync, job)
        except PoolExhaustedError as exc:
            job.fail(f"worker pool exhausted; lost kernels: "
                     f"{', '.join(map(str, exc.unfinished))}")
        except _BadRequest as exc:
            job.fail(f"bad plan: {exc}")
        except Exception as exc:            # report, never crash the loop
            job.fail(f"{type(exc).__name__}: {exc}")
        else:
            job.finish(table)
        self._count("plans_completed" if job.state == "done"
                    else "plans_failed")
        self._persist_session()

    def _run_plan_sync(self, job: PlanJob) -> str:
        """Evaluate one plan on a worker thread; returns table text."""
        job.state = "running"       # queued until a plan thread is free
        runner = _ServedRunner(self, job)
        request = job.request
        try:
            if "experiment" in request:
                text = run_experiment(
                    request["experiment"], bool(request.get("fast", True)),
                    runner, request.get("kernels"), request.get("sample"))
            else:
                results = runner.run_plan(expand_grid(request))
                text = render_grid_table(results)
        except BaseException as exc:
            # Joiners never hang: whatever ended this plan fails the
            # keys it claimed and did not settle.
            self._release(runner.claims, exc)
            raise
        finally:
            if runner.last_metrics is not None:
                job.metrics = runner.last_metrics.as_dict()
        return text

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def _add_totals(self, counts: Dict[str, int]) -> None:
        with self._lock:
            add_counts(self.totals, counts)

    def _absorb_plan(self, metrics) -> None:
        """Count one finished plan; its cells were counted as it
        started, and its chunks as they finished."""
        with self._lock:
            self.totals["plans_run"] += 1
            self.wall_seconds += metrics.wall_seconds
            self._last_plan = metrics.as_dict()

    def _count_chunk_failure(self, exc: Exception) -> None:
        with self._lock:
            self.counters["chunk_failures"] += 1
            if isinstance(exc, PoolExhaustedError):
                self.counters["pool_exhausted"] += 1
                self.lost_digests.extend(exc.unfinished)

    # -- the claim table (plan threads) ---------------------------------

    def _claim(self, claims: Dict[str, Future], digests: Sequence[str],
               keys: Sequence[str], pending: Sequence[int],
               counts: Dict[str, int]) -> Tuple[List[int], list]:
        """Claim a plan's pending cells by cache key; returns ``(own,
        joined)``: the indices whose keys it now owns (added to
        ``claims``), and ``(index, future)`` per index whose key was
        claimed already.  Counts the plan as it starts executing, so a
        running or failed plan shows in ``/metrics``."""
        own: List[int] = []
        joined = []
        with self._lock:
            for index in pending:
                key = keys[index]
                claim = self._claims.get(key)
                if claim is None:
                    claim = self._claims[key] = claims[key] = Future()
                    own.append(index)
                else:
                    joined.append((index, claim))
            self.counters["cells_requested"] += len(keys)
            self.totals["cells_from_cache"] += counts["cells_from_cache"]
            self.totals["dedup_inflight_hits"] += len(joined)
            if own:
                # One pooled chunk per kernel (identity digest).
                self.counters["batches"] += 1
                self.counters["chunks"] += len({digests[i] for i in own})
        return own, joined

    def _settle(self, key: str, claim: Future, record: dict) -> None:
        """The owner has stored ``record``: release its key and hand the
        record to the key's joiners."""
        with self._lock:
            del self._claims[key]
        claim.set_result(record)

    def _release(self, claims: Dict[str, Future],
                 exc: BaseException) -> None:
        """Fail and release every claim in ``claims``: its owning plan
        ended without settling them."""
        with self._lock:
            for key in claims:
                del self._claims[key]
        for claim in claims.values():
            claim.set_exception(exc)
        claims.clear()

    # -- metrics --------------------------------------------------------

    def metrics_payload(self) -> dict:
        pool = self.pool
        with self._lock:
            counters = dict(self.counters)
            totals = with_pool_counts(self.totals, pool)
            lost_digests = list(self.lost_digests)
        server = counter_sections(totals)
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
            lost_digests=lost_digests)
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
