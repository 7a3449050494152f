"""Layer spans recorded from outside the program, for the traced run.

:func:`install` replaces the public functions of each harness layer with
timing wrappers, in every namespace that looks the name up (the runner
imports ``golden_for``, ``run_cell_chunk``, ``elide_pairs`` and
``cache_key`` by name, so those are patched where they are imported,
not only where they are defined).  :func:`uninstall` puts the originals
back, so traced and untraced iterations can alternate in one process.

Pool workers are forked after :func:`install`, so they run the wrappers
too.  A worker returns its spans inside the chunk payload; the wrapper
around ``WorkerPool.run`` in the parent takes them out again, parents
them under its own ``pool.wait`` span and weights them ``1 / jobs``,
because ``jobs`` workers share one stretch of the parent's wall clock.

A span's *self time* is its duration minus the time its child spans
cover.  With the weights, the effective self times of every span under
a lane's root spans add up to those roots' durations, so per-layer
shares of a lane plus the time no root covers account for the lane's
wall clock.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

#: Payload key that carries a worker's spans back to the parent.
SPAN_KEY = "_perfbench_spans"


class Span(NamedTuple):
    sid: tuple                  # (pid, sequence number)
    parent: Optional[tuple]     # enclosing span's sid, or None for a root
    layer: str
    name: str
    start: float                # time.perf_counter(): CLOCK_MONOTONIC,
    end: float                  # comparable across processes
    pid: int
    tid: int
    weight: float = 1.0


class Recorder:
    """Thread-aware span sink for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._seq = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def swap_stack(self, stack: list) -> list:
        """Replace this thread's open-span stack; returns the old one."""
        old = self._stack()
        self._local.stack = stack
        return old

    def begin(self):
        stack = self._stack()
        sid = (os.getpid(), next(self._seq))
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent

    def end(self, sid, parent, layer: str, name: str, start: float) -> Span:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(sid, parent, layer, name, start, end, sid[0],
                    threading.get_ident())
        self.spans.append(span)
        return span

    def adopt(self, spans: Iterable[Span], parent: tuple,
              weight: float) -> None:
        """Take spans recorded in another process: their roots become
        children of ``parent`` and every span gets ``weight``."""
        for span in spans:
            self.spans.append(span._replace(parent=span.parent or parent,
                                            weight=weight))


def timed(rec: Recorder, layer: str, fn, classify=None):
    """Wrap ``fn`` so each call records one ``layer`` span.

    ``classify(result)`` may name the outcome; the span's name becomes
    ``<function>:<outcome>``.
    """
    base = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = rec.begin()
        start = time.perf_counter()
        name = base
        try:
            result = fn(*args, **kwargs)
            if classify is not None:
                name = f"{base}:{classify(result)}"
            return result
        finally:
            rec.end(sid, parent, layer, name, start)
    return wrapper


def timed_generator(rec: Recorder, layer: str, fn):
    """Wrap a generator function: each resumption is one span, so the
    consumer's work between items is not charged to ``layer``."""
    base = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            sid, parent = rec.begin()
            start = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.end(sid, parent, layer, base, start)
            yield item
    return wrapper


def timed_chunk(rec: Recorder, layer: str, fn):
    """Wrap the pool's worker entry point: record the chunk's spans as
    a fresh tree and ship them back inside the returned payload."""
    inner = timed(rec, layer, fn)

    @functools.wraps(fn)
    def wrapper(chunk):
        saved = rec.swap_stack([])
        mark = len(rec.spans)
        try:
            payload = inner(chunk)
        finally:
            rec.swap_stack(saved)
        payload[SPAN_KEY] = rec.spans[mark:]
        del rec.spans[mark:]
        return payload
    return wrapper


def timed_pool_run(rec: Recorder, layer: str, fn):
    """Wrap ``WorkerPool.run``: the parent's wait is one span, and the
    workers' spans returned in the payloads are adopted under it."""
    @functools.wraps(fn)
    def run(pool, task_fn, tasks, labels=None):
        sid, parent = rec.begin()
        start = time.perf_counter()
        try:
            results = fn(pool, task_fn, tasks, labels)
        finally:
            rec.end(sid, parent, layer, "run", start)
        for payload in results:
            if isinstance(payload, dict) and SPAN_KEY in payload:
                rec.adopt(payload.pop(SPAN_KEY), sid, 1.0 / pool.jobs)
        return results
    return run


def _hit(record) -> str:
    return "miss" if record is None else "hit"


#: (module, attribute path, layer, wrapper kind).  A function imported
#: by name into several modules is listed once per module, and all
#: entries for one original share one wrapper object, so pickling the
#: worker entry point by reference still finds the same object.
TARGETS = (
    ("repro.uarch.processor", "Processor.__init__", "uarch.construct",
     "call"),
    ("repro.uarch.processor", "Processor.run", "uarch.run", "call"),
    ("repro.harness.pool", "run_program", "arch.golden_run", "call"),
    ("repro.harness.runner", "run_program", "arch.golden_run", "call"),
    ("repro.harness.pool", "golden_for", "pool.golden", "call"),
    ("repro.harness.parallel", "golden_for", "pool.golden", "call"),
    ("repro.harness.pool", "run_cell_chunk", "pool.chunk", "chunk"),
    ("repro.harness.parallel", "run_cell_chunk", "pool.chunk", "chunk"),
    ("repro.harness.server", "run_cell_chunk", "pool.chunk", "chunk"),
    ("repro.harness.pool", "WorkerPool.run", "pool.wait", "pool_run"),
    ("repro.harness.pool", "WorkerPool.close", "pool.close", "call"),
    ("repro.harness.elide", "elide_pairs", "elide", "generator"),
    ("repro.harness.parallel", "elide_pairs", "elide", "generator"),
    ("repro.harness.elide", "cache_key", "cache.key", "call"),
    ("repro.harness.parallel", "cache_key", "cache.key", "call"),
    ("repro.harness.server", "cache_key", "cache.key", "call"),
    ("repro.harness.cache", "ResultCache.load", "cache.load", "load"),
    ("repro.harness.cache", "ResultCache.store", "cache.store", "call"),
    ("repro.harness.journal", "PlanJournal.record", "journal.record",
     "call"),
    ("repro.harness.journal", "PlanJournal.write_manifest",
     "journal.manifest", "call"),
    ("repro.harness.parallel", "execute_cell", "parallel.check", "call"),
    ("repro.harness.parallel", "result_from_record", "parallel.decode",
     "call"),
    ("repro.harness.parallel", "ParallelRunner.run_plan",
     "parallel.runner", "call"),
    ("repro.harness.parallel", "ParallelRunner.fill_plan",
     "parallel.runner", "call"),
    ("repro.harness.experiments", "_instances", "experiments.plan",
     "call"),
    ("repro.harness.experiments", "corpus_plan", "experiments.plan",
     "call"),
    ("repro.harness.sweep", "SweepPlan.add", "experiments.plan", "call"),
    ("repro.harness.sweep", "SweepPlan.add_points", "experiments.plan",
     "call"),
    ("repro.stats.report", "Table.render", "report.render", "call"),
    ("repro.harness.client", "SweepClient.submit", "client.submit",
     "call"),
    ("repro.harness.client", "SweepClient.wait", "client.poll", "call"),
    ("repro.harness.client", "SweepClient.status", "client.poll", "call"),
    ("repro.harness.client", "SweepClient.table", "client.table", "call"),
)

#: Experiment functions: wrapped both as module attributes (the
#: benchmark calls those) and in the ``EXPERIMENTS`` registry (the
#: server looks them up there).  ``t1`` stays unwrapped: the server
#: special-cases it by identity.
EXPERIMENT_IDS = ("t2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8",
                  "e9", "e10")

_KINDS = {
    "call": timed,
    "load": lambda rec, layer, fn: timed(rec, layer, fn, classify=_hit),
    "generator": timed_generator,
    "chunk": timed_chunk,
    "pool_run": timed_pool_run,
}


def install(rec: Recorder) -> List[tuple]:
    """Patch every layer target to record into ``rec``; returns the
    ``(owner, attribute, original)`` patches for :func:`uninstall`."""
    import importlib

    done: List[tuple] = []
    wrappers: Dict[int, object] = {}

    def patch(owner, attr, layer, kind):
        original = getattr(owner, attr)
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            wrapper = _KINDS[kind](rec, layer, original)
            wrappers[id(original)] = wrapper
        done.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    for module_name, path, layer, kind in TARGETS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        patch(owner, attr, layer, kind)

    experiments = importlib.import_module("repro.harness.experiments")
    for key in EXPERIMENT_IDS:
        func = experiments.EXPERIMENTS[key]
        patch(experiments, func.__name__, "experiments.table", "call")
        original = experiments.EXPERIMENTS[key]
        done.append((experiments.EXPERIMENTS, key, original))
        experiments.EXPERIMENTS[key] = wrappers[id(original)]
    return done


def uninstall(done: List[tuple]) -> None:
    """Restore every original, newest patch first."""
    for owner, attr, original in reversed(done):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
    done.clear()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def self_times(spans: Sequence[Span], weighted: bool) -> Dict[tuple, float]:
    """Self time per span: its duration minus its children's.

    ``weighted=True`` scales each span by its weight before subtracting,
    which is how worker time is charged against the parent's wait.
    ``weighted=False`` gives host seconds spent in each span, and only
    subtracts children recorded in the same process.
    """
    pid = {span.sid: span.pid for span in spans}
    own = {span.sid: (span.end - span.start)
           * (span.weight if weighted else 1.0) for span in spans}
    out = dict(own)
    for span in spans:
        if span.parent in out and (weighted
                                   or pid[span.parent] == span.pid):
            out[span.parent] -= own[span.sid]
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, host seconds of self time, and duration."""
    selfs = self_times(spans, weighted=False)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "self_s": 0.0, "total_s": 0.0})
    for span in spans:
        entry = totals[span.layer]
        entry["count"] += 1
        entry["self_s"] += selfs[span.sid]
        entry["total_s"] += span.end - span.start
    return dict(totals)


def name_counts(spans: Sequence[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    return dict(counts)


def attribute(spans: Sequence[Span], lanes: Dict[tuple, float]):
    """Where a traced wall clock went.

    ``lanes`` maps each ``(pid, thread id)`` that carries the timed work
    to that thread's busy wall time.  Returns ``(shares,
    unattributed)``: each layer's effective self time as a share of the
    summed lane time, and the share no root span covers.  Spans outside
    the lanes' trees (another process's own threads) are ignored.
    """
    by_sid = {span.sid: span for span in spans}

    def lane_of(span):
        while span.parent is not None and span.parent in by_sid:
            span = by_sid[span.parent]
        return (span.pid, span.tid) if span.parent is None else None

    total = sum(lanes.values())
    if total <= 0:
        raise ValueError("lanes carry no wall time")
    selfs = self_times(spans, weighted=True)
    shares: Dict[str, float] = defaultdict(float)
    covered = 0.0
    for span in spans:
        if lane_of(span) not in lanes:
            continue
        shares[span.layer] += selfs[span.sid] / total
        if span.parent is None:
            covered += span.end - span.start
    return dict(shares), 1.0 - covered / total
