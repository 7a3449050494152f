"""The four benchmark workloads, each one timed iteration at a time.

Every iteration drives the same public entry points as the CLI and the
sweep server and returns an :class:`Iteration`: its timed wall clock,
what it completed, the counters read from the cell records it wrote,
and the output check's verdict.

* ``e1_full`` — ``e1_main(fast=False)`` over the 14 kernels x 5 points
  into a fresh cache root (long cells: simulation dominates).  The grid
  has no sampled inputs, so the seed does not change it.
* ``corpus_fill_cold`` — ``fill_plan`` of 200 seeded corpus programs x
  7 points into a fresh root (short cells: harness layers matter).
* ``corpus_extend_warm`` — from a root holding the E9-point fill of the
  same 200 programs (records, golden store and plan store, prepared
  once per run and copied before each iteration, untimed), render E9
  and then E10: 2400 record reads and 200 new txwave cells.
* ``served_mix`` — ``cli serve --jobs 2`` on a fresh root; two
  closed-loop ``SweepClient`` threads submit the fast experiments in
  opposite seeded orders, twice over, and fetch every table.

Cold iterations get a fresh root, ``reset_golden_memo()``, freshly
built kernel instances (the experiment functions build them) and a new
``ParallelRunner`` whose pool spin-up is inside the timed region,
because CLI users pay it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
import spans as spanlib

#: Worker processes and client threads: the benchmark host has 2 cores.
JOBS = 2

#: Corpus programs per sweep (the 200 x 7 fill ROADMAP names).
CORPUS_PROGRAMS = 200

#: Experiments the served mix requests (the fast ones; t1 is static).
SERVED = ("t2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
          "e10")

#: Passes each client makes over its order per server: the first finds
#: the other client's work in flight or cached, the second is repeats
#: served from the cache.
SERVED_PASSES = 2

#: Status poll interval of the served clients, in seconds.  A plan
#: served from the cache finishes in tens of milliseconds, so the
#: client's default 50 ms would quantize most latencies to its steps.
SERVED_POLL = 0.01

#: Fresh interpreters timed for ``setup_s`` before each sweep
#: iteration: spread over the run, the samples see the host as the
#: iterations do.
SETUP_SAMPLES = 2

HERE = Path(__file__).resolve().parent


@dataclass
class Iteration:
    """One timed iteration's measurements and checks."""

    wall: float
    traced: bool
    attempted: int
    #: ``time.perf_counter()`` when the timed region began.
    start: float = 0.0
    #: Host speed over the timed region (``hostspeed``); every timing
    #: of the iteration is reported multiplied by it.
    speed: float = 1.0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    cells: int = 0
    plans: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Counters summed over the cells this iteration simulated.
    uarch: Dict[str, int] = field(default_factory=dict)
    simulated: int = 0
    forwarded: int = 0
    digest: Optional[str] = None
    #: Runner or server counters (golden runs, stores, elision, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    lanes: Dict[tuple, float] = field(default_factory=dict)
    #: ``served_mix`` traced: spans of the server and its workers.
    server_spans: list = field(default_factory=list)
    #: ``served_mix`` only: ``(start, seconds, core)`` from server start
    #: until ``/healthz`` answers, the server pinned to ``core``.
    setup: Optional[Tuple[float, float, int]] = None
    #: What the timed sweep body returned (E1's anchors, the fill
    #: outcome).
    outcome: Optional[dict] = None


class Context:
    """Per-run state: paths, seed, the span recorder and expected
    outputs."""

    def __init__(self, root: Path, work: Path, seed: int,
                 expected: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.expected = expected
        self.rec = spanlib.Recorder()
        self._count = 0

    def fresh_dir(self, stem: str) -> Path:
        self._count += 1
        path = self.work / f"{stem}-{self._count}"
        path.mkdir(parents=True)
        return path

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def start_trace(self, traced: bool):
        self.rec.spans.clear()
        return spanlib.install(self.rec) if traced else None

    def stop_trace(self, installation) -> list:
        if installation is None:
            return []
        spanlib.uninstall(installation)
        taken = list(self.rec.spans)
        self.rec.spans.clear()
        return taken


# ----------------------------------------------------------------------
# Records and output checks
# ----------------------------------------------------------------------

UARCH_KEYS = ("cycles", "committed_insts", "fu_work_issued",
              "squashed_executions", "net_sent", "lsq_loads_issued",
              "lsq_redeliveries", "specialize_hits", "specialize_misses")


def read_records(root: Path) -> Dict[str, dict]:
    """Every cell record under a cache root, by key."""
    from repro.harness.cache import ResultCache

    records = {}
    for path in ResultCache(str(root)).entries():
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        records[record["key"]] = record
    return records


def cells_digest(records) -> str:
    """SHA-256 over (label, cycles, committed insts, arch digest) of
    every cell, in label order."""
    lines = sorted(
        f"{r['label']}|{r['result']['stats']['cycles']}|"
        f"{r['result']['stats']['committed_instructions']}|"
        f"{r['arch_digest']}" for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def uarch_counts(records) -> Dict[str, int]:
    """Simulated-machine counters summed over simulated records."""
    out = dict.fromkeys(UARCH_KEYS, 0)
    for record in records:
        result = record["result"]
        stats = result["stats"]
        out["cycles"] += stats["cycles"]
        out["committed_insts"] += stats["committed_instructions"]
        out["fu_work_issued"] += stats["fu_work_issued"]
        out["squashed_executions"] += stats["squashed_executions"]
        out["net_sent"] += result["network"]["sent"]
        out["lsq_loads_issued"] += result["lsq"]["loads_issued"]
        out["lsq_redeliveries"] += result["lsq"]["redeliveries"]
        out["specialize_hits"] += stats["specialize_hits"]
        out["specialize_misses"] += stats["specialize_misses"]
    return out


def absorb_records(it: Iteration, records) -> None:
    """Fill the record-derived fields of ``it`` from the records the
    iteration produced (forwarded records replay a representative's
    counters, so only simulated ones are summed)."""
    simulated = [r for r in records if not r.get("forwarded_from")]
    it.simulated = len(simulated)
    it.forwarded = len(records) - len(simulated)
    it.uarch = uarch_counts(simulated)


def check_digest(ctx: Context, it: Iteration, workload: str,
                 bless: dict) -> None:
    """Compare ``it.digest`` with the digest stored for this workload
    and seed; a mismatch fails every cell of the iteration.  Seeds with
    no stored digest rely on the always-on differential check."""
    key = "any" if workload == "e1_full" else str(ctx.seed)
    if bless is not None:
        bless.setdefault(workload, {})[key] = it.digest
        return
    want = ctx.expected.get(workload, {}).get(key)
    if want is not None and want != it.digest:
        it.failed = it.attempted
        it.problems.append(f"{workload}: cell digest {it.digest[:16]} != "
                           f"expected {want[:16]} (seed {ctx.seed})")


# ----------------------------------------------------------------------
# Sweep runner with per-cell completion times
# ----------------------------------------------------------------------

def _latency_runner(root: Path):
    """A CLI-configured ``ParallelRunner`` (jobs=2, cache, journal) that
    notes when each cell's record is in hand: admitted to the cache
    after simulation or forwarding, or found there by the probe."""
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import ParallelRunner

    class Cache(ResultCache):
        def load(self, key):
            record = super().load(key)
            if record is not None:
                runner.latencies.append(time.perf_counter() - runner.t0)
            return record

    class Runner(ParallelRunner):
        def run_plan(self, plan):
            self._begin()
            return super().run_plan(plan)

        def fill_plan(self, plan):
            self._begin()
            return super().fill_plan(plan)

        def _begin(self):
            self.plans += 1
            self.t0 = time.perf_counter()

        def _admit(self, key, record):
            super()._admit(key, record)
            self.latencies.append(time.perf_counter() - self.t0)

    runner = Runner(jobs=JOBS, cache=Cache(str(root)), journal=True)
    runner.latencies = []
    runner.plans = 0
    runner.t0 = time.perf_counter()
    return runner


def _runner_counters(runner) -> Dict[str, float]:
    return {
        "golden_fresh": runner.golden_fresh,
        "golden_store_hits": runner.planstore_totals["golden_store_hits"],
        "plan_store_hits": runner.planstore_totals["plan_cache_hits"],
        "elision_fallbacks": runner.elision_fallbacks,
    }


def _timed_sweep(ctx: Context, traced: bool, attempted: int, body,
                 root: Path) -> Iteration:
    """Run ``body(runner)`` cold and timed; the runner is closed inside
    the timed region (the CLI pays the pool shutdown too)."""
    from repro.errors import ReproError
    from repro.harness.pool import reset_golden_memo

    reset_golden_memo()
    installation = ctx.start_trace(traced)
    problems: List[str] = []
    outcome = None
    try:
        start = time.perf_counter()
        runner = _latency_runner(root)
        try:
            outcome = body(runner)
        except ReproError as exc:
            problems.append(f"{type(exc).__name__}: {exc}")
        finally:
            runner.close()
        wall = time.perf_counter() - start
    finally:
        taken = ctx.stop_trace(installation)
    it = Iteration(wall=wall, traced=traced, attempted=attempted,
                   start=start, problems=problems, plans=runner.plans,
                   latencies=list(runner.latencies),
                   counters=_runner_counters(runner), spans=taken,
                   lanes={(os.getpid(), threading.get_ident()): wall},
                   outcome=outcome)
    if problems:
        it.failed = attempted
    return it


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Base: ``prepare`` once per run, then ``iterate`` repeatedly."""

    name = ""
    #: Untraced iterations a run makes at least: the fewest whose
    #: median is steady enough, given how long one iteration takes.
    min_iterations = 2

    def prepare(self, ctx: Context) -> None:
        pass

    def setup_samples(self, ctx: Context) -> List[Tuple[float, float, int]]:
        """``(start, seconds, core)`` for a fresh interpreter to ``import
        repro.harness``, taken before each iteration.  Each runs pinned
        to one core, taking the cores in turn, so that its time can be
        scaled by that core's speed alone."""
        cores = hostspeed.cpus()
        out = []
        for index in range(SETUP_SAMPLES):
            core = cores[index % len(cores)]
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import repro.harness"],
                           env=ctx.env(), cwd=str(ctx.root), check=True,
                           preexec_fn=hostspeed.pin_to(core))
            out.append((start, time.perf_counter() - start, core))
        return out

    def iterate(self, ctx: Context, traced: bool,
                bless: Optional[dict]) -> Iteration:
        raise NotImplementedError


class E1Full(Workload):
    name = "e1_full"
    min_iterations = 2

    def iterate(self, ctx, traced, bless):
        from repro.harness import experiments

        root = ctx.fresh_dir("e1")

        def body(runner):
            table = experiments.e1_main(fast=False, runner=runner)
            table.render()
            return {"dsre_over_storeset": table.data["dsre_over_storeset"],
                    "dsre_fraction_of_oracle":
                        table.data["dsre_fraction_of_oracle"]}

        it = _timed_sweep(ctx, traced, 70, body, root)
        records = list(read_records(root).values())
        it.cells = len(records)
        absorb_records(it, records)
        it.digest = cells_digest(records)
        if not it.problems:
            check_digest(ctx, it, self.name, bless)
        shutil.rmtree(root)
        return it


def fill_corpus_plan(seed: int, points):
    """The cold fill's plan, built as ``corpus_plan`` builds it: the
    default sample's shapes, sizes, working sets and predication, with
    generator seeds ``seed * 200`` to ``seed * 200 + 199`` (seed 0 is
    the default E9 corpus).

    ``corpus_plan(seed=...)`` would redraw the sizes and keep the
    generator seeds, and the fill's simulated work would move by about
    10 % from seed to seed, past what a 25 % bound on its spread can
    hold beside host noise; here every seed fills other programs of the
    same sizes."""
    from repro.harness.sweep import SweepPlan
    from repro.workloads.corpus import build_corpus, sample_corpus

    plan = SweepPlan()
    for params in sample_corpus(CORPUS_PROGRAMS, fast=True):
        params = dataclasses.replace(
            params, seed=seed * CORPUS_PROGRAMS + params.seed)
        plan.add_points(build_corpus(params), tuple(points))
    return plan


class CorpusFillCold(Workload):
    name = "corpus_fill_cold"
    min_iterations = 3

    def iterate(self, ctx, traced, bless):
        from repro.harness import experiments

        root = ctx.fresh_dir("fill")
        points = experiments.E10_POINTS
        attempted = CORPUS_PROGRAMS * len(points)
        make_plan = fill_corpus_plan
        if traced:
            make_plan = spanlib.timed(ctx.rec, "experiments.plan", make_plan)

        def body(runner):
            return runner.fill_plan(make_plan(ctx.seed, points))

        it = _timed_sweep(ctx, traced, attempted, body, root)
        records = list(read_records(root).values())
        it.cells = len(records)
        absorb_records(it, records)
        it.digest = cells_digest(records)
        done = it.outcome and it.outcome["executed"] + it.outcome["elided"]
        if not it.problems and done != attempted:
            it.failed = attempted
            it.problems.append(f"cold fill completed {done} of {attempted} "
                               "cells")
        if not it.problems:
            check_digest(ctx, it, self.name, bless)
        shutil.rmtree(root)
        return it


class CorpusExtendWarm(Workload):
    """Warm tiers: the E9-point records, the golden store and the plan
    store of the same 200 programs.  Cold: memos, instances, runner.

    Runnable by name, but not listed in ``BENCHMARK.json``: a full pass
    of 22 runs per workload over four workloads overran the benchmark's
    time budget on a 2-core host."""

    name = "corpus_extend_warm"
    min_iterations = 2

    def prepare(self, ctx):
        from repro.harness.experiments import E9_POINTS, corpus_plan
        from repro.harness.pool import reset_golden_memo

        self.prepared = ctx.fresh_dir("prepared")
        reset_golden_memo()
        plan, _ = corpus_plan(fast=True, sample=CORPUS_PROGRAMS,
                              seed=ctx.seed, points=E9_POINTS)
        runner = _latency_runner(self.prepared)
        try:
            runner.fill_plan(plan)
        finally:
            runner.close()
        self.prepared_keys = set(read_records(self.prepared))

    def iterate(self, ctx, traced, bless):
        from repro.harness import experiments

        root = ctx.fresh_dir("extend")
        shutil.rmtree(root)
        shutil.copytree(self.prepared, root)
        attempted = CORPUS_PROGRAMS * (len(experiments.E9_POINTS)
                                       + len(experiments.E10_POINTS))

        def body(runner):
            # Looked up at call time, so the traced run sees the spans.
            experiments.e9_corpus_ordering(
                fast=True, sample=CORPUS_PROGRAMS, seed=ctx.seed,
                runner=runner).render()
            experiments.e10_squash_work(
                fast=True, sample=CORPUS_PROGRAMS, seed=ctx.seed,
                runner=runner).render()

        it = _timed_sweep(ctx, traced, attempted, body, root)
        records = read_records(root)
        new = [r for key, r in records.items()
               if key not in self.prepared_keys]
        it.cells = attempted - it.failed
        absorb_records(it, new)
        it.digest = cells_digest(records.values())
        if not it.problems:
            check_digest(ctx, it, self.name, bless)
        shutil.rmtree(root)
        return it


class ServedMix(Workload):
    """Closed loop: two clients, :data:`SERVED_PASSES` passes each over
    :data:`SERVED` in opposite seeded orders, on a fresh server per
    iteration."""

    name = "served_mix"
    min_iterations = 4

    def prepare(self, ctx):
        # Each iteration draws its own order from the seeded stream, so a
        # run's tail latencies average over several orders instead of
        # hinging on which experiments one order happens to collide.
        self.orders = random.Random(ctx.seed)
        self.started = 0

    def setup_samples(self, ctx):
        return []           # each iteration times its server's start

    def _start_server(self, ctx, root: Path, traced: bool, core: int):
        port_file = root.parent / (root.name + ".port")
        serve_args = ["--jobs", str(JOBS), "--port", "0",
                      "--port-file", str(port_file),
                      "--cache-dir", str(root / "cache"),
                      "--drain-linger", "0"]
        spans_file = root.parent / (root.name + ".spans.json")
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"),
                   "--spans-out", str(spans_file)] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro.harness.cli",
                   "serve"] + serve_args
        log = open(root.parent / (root.name + ".log"), "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ctx.env(), cwd=str(ctx.root),
                                stdout=log, stderr=subprocess.STDOUT,
                                preexec_fn=hostspeed.pin_to(core))
        log.close()
        return proc, port_file, spans_file, start

    @staticmethod
    def _await_health(proc, port_file: Path, start: float):
        from repro.harness.client import ServerError, SweepClient

        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"sweep server exited with {proc.returncode}")
            if port_file.exists():
                client = SweepClient(port=int(port_file.read_text()))
                try:
                    client.healthz()
                    return client.port, time.perf_counter() - start
                except ServerError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("sweep server did not answer /healthz")

    @staticmethod
    def _stop_server(proc) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def _golden(self, ctx, name: str) -> Optional[str]:
        path = ctx.root / "benchmarks" / "golden_tables" / f"{name}.txt"
        return path.read_text() if path.exists() else None

    def _check_table(self, ctx, name: str, text: str, bless):
        """None when ``text`` is the expected table, else a problem.

        ``e4`` is checked against a recorded digest: the server renders
        the default combos (with the hybrid column), while the golden
        file pins the legacy six."""
        if name == "e4":
            digest = hashlib.sha256(text.encode()).hexdigest()
            if bless is not None:
                bless.setdefault(self.name, {})["e4"] = digest
                return None
            want = ctx.expected.get(self.name, {}).get("e4")
            if want != digest:
                return f"e4 table digest {digest[:16]} != {str(want)[:16]}"
            return None
        golden = self._golden(ctx, name)
        if golden is None:
            return f"no golden table for {name}"
        if text + "\n" != golden:
            return f"{name} table differs from its golden bytes"
        return None

    def iterate(self, ctx, traced, bless):
        from repro.harness.client import ServerError, SweepClient

        root = ctx.fresh_dir("served")
        installation = ctx.start_trace(traced)
        proc = None
        try:
            # Pinned to one core until /healthz answers, so that its
            # start-up time can be scaled by that core's speed; its pool
            # workers start later, unpinned, with the first batch.
            cores = hostspeed.cpus()
            core = cores[self.started % len(cores)]
            self.started += 1
            proc, port_file, spans_file, start = self._start_server(
                ctx, root, traced, core)
            port, setup = self._await_health(proc, port_file, start)
            hostspeed.unpin(proc.pid)
            order = list(SERVED)
            self.orders.shuffle(order)
            orders = [order * SERVED_PASSES,
                      order[::-1] * SERVED_PASSES]
            results: List[list] = [[] for _ in orders]
            lanes: Dict[tuple, float] = {}

            def client_loop(slot: int) -> None:
                begin = time.perf_counter()
                for index, name in enumerate(orders[slot]):
                    # One tenant per plan: the mix offers far more cells
                    # per second than one tenant's default token bucket
                    # refills, and a refusal would count as a failure.
                    client = SweepClient(port=port,
                                         tenant=f"client{slot}-{index}")
                    sent = time.perf_counter()
                    text, cells, error = None, 0, None
                    try:
                        # SweepClient.run, keeping the plan's cell count.
                        plan_id = client.submit({"experiment": name,
                                                 "fast": True})
                        status = client.wait(plan_id, poll=SERVED_POLL)
                        if status["state"] == "done":
                            text = client.table(plan_id)
                            cells = status["cells"]["total"]
                        else:
                            error = f"{name}: {status.get('error')}"
                    except ServerError as exc:
                        error = f"{name}: {exc}"
                    results[slot].append((name, time.perf_counter() - sent,
                                          text, cells, error))
                lanes[(os.getpid(), threading.get_ident())] = \
                    time.perf_counter() - begin

            threads = [threading.Thread(target=client_loop, args=(slot,))
                       for slot in range(len(orders))]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
            wall = time.perf_counter() - begin
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("served_mix clients did not finish")
            metrics = SweepClient(port=port).metrics()["server"]
        finally:
            taken = ctx.stop_trace(installation)
            if proc is not None:
                self._stop_server(proc)
        server_spans = []
        if traced and spans_file.exists():
            with open(spans_file, "r", encoding="utf-8") as fh:
                server_spans = [spanlib.Span(tuple(s[0]),
                                             tuple(s[1]) if s[1] else None,
                                             *s[2:]) for s in json.load(fh)]

        it = Iteration(wall=wall, traced=traced,
                       attempted=sum(len(o) for o in orders), start=begin,
                       spans=taken, lanes=lanes, server_spans=server_spans,
                       setup=(start, setup, core))
        for slot_results in results:
            for name, latency, text, cells, error in slot_results:
                it.plans += 1
                it.cells += cells
                it.latencies.append(latency)
                if error is None:
                    error = self._check_table(ctx, name, text, bless)
                if error is not None:
                    it.failed += 1
                    it.problems.append(error)
        if it.plans < it.attempted:
            it.failed += it.attempted - it.plans
            it.problems.append(f"{it.attempted - it.plans} plans never "
                               "returned")
        cells = metrics["cells"]
        it.counters = {
            "golden_fresh": metrics["golden"]["fresh"],
            "golden_store_hits":
                metrics["plan_store"]["golden_store_hits"],
            "plan_store_hits": metrics["plan_store"]["plan_cache_hits"],
            "elision_fallbacks": metrics["elision"]["fallbacks"],
            "server.cells_executed": cells["executed"],
            "server.cells_from_cache": cells["from_cache"],
            "server.dedup_hits": cells["dedup_inflight_hits"],
            "server.batches": metrics["batches"],
            "server.chunks": metrics["chunks"],
        }
        records = list(read_records(root / "cache").values())
        absorb_records(it, records)
        shutil.rmtree(root)
        return it


WORKLOADS = {cls.name: cls for cls in (E1Full, CorpusFillCold,
                                       CorpusExtendWarm, ServedMix)}
