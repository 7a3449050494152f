"""Unit tests for span recording, self time, worker span collection and
wall-clock attribution."""

import os
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))

import spans  # noqa: E402


def span(sid, parent, layer, start, end, pid=1, tid=1, weight=1.0):
    return spans.Span((pid, sid), (pid, parent) if parent is not None
                      else None, layer, layer, start, end, pid, tid, weight)


# -- self time ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    tree = [span(0, None, "a", 0.0, 10.0),
            span(1, 0, "b", 1.0, 4.0),
            span(2, 1, "c", 2.0, 3.0),
            span(3, 0, "b", 5.0, 6.0)]
    selfs = spans.self_times(tree, weighted=True)
    assert selfs[(1, 0)] == pytest.approx(6.0)     # 10 - 3 - 1
    assert selfs[(1, 1)] == pytest.approx(2.0)     # 3 - 1
    assert selfs[(1, 2)] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_weighted_self_time_charges_workers_by_share():
    wait = span(0, None, "pool.wait", 0.0, 10.0)
    # Two workers, 8 s each, weighted 1/2: they cover 8 s of the wait.
    work = [spans.Span((7, 0), (1, 0), "pool.chunk", "c", 0.5, 8.5, 7, 7,
                       0.5),
            spans.Span((8, 0), (1, 0), "pool.chunk", "c", 1.0, 9.0, 8, 8,
                       0.5)]
    weighted = spans.self_times([wait] + work, weighted=True)
    assert weighted[(1, 0)] == pytest.approx(2.0)
    raw = spans.self_times([wait] + work, weighted=False)
    assert raw[(1, 0)] == pytest.approx(10.0)      # other processes
    assert raw[(7, 0)] == pytest.approx(8.0)


def test_layer_totals_count_self_and_duration():
    tree = [span(0, None, "a", 0.0, 4.0), span(1, 0, "b", 1.0, 2.0),
            span(2, None, "b", 5.0, 7.0)]
    totals = spans.layer_totals(tree)
    assert totals["a"] == {"count": 1, "self_s": 3.0, "total_s": 4.0}
    assert totals["b"] == {"count": 2, "self_s": 3.0, "total_s": 3.0}


# -- attribution -------------------------------------------------------

def test_attribution_accounts_for_the_lane_wall():
    tree = [span(0, None, "run", 0.0, 8.0),
            span(1, 0, "cache", 1.0, 3.0),
            span(2, None, "render", 8.5, 9.0),
            # A root on another process's thread is not a lane.
            span(0, None, "server", 0.0, 9.0, pid=2, tid=5)]
    shares, unattributed = spans.attribute(tree, {(1, 1): 10.0})
    assert shares == {"run": pytest.approx(0.6),
                      "cache": pytest.approx(0.2),
                      "render": pytest.approx(0.05)}
    assert unattributed == pytest.approx(0.15)
    assert sum(shares.values()) + unattributed == pytest.approx(1.0)


def test_attribution_sums_over_lanes():
    tree = [span(0, None, "x", 0.0, 4.0, tid=1),
            span(1, None, "y", 0.0, 2.0, tid=2)]
    shares, unattributed = spans.attribute(tree, {(1, 1): 4.0,
                                                  (1, 2): 4.0})
    assert shares == {"x": pytest.approx(0.5), "y": pytest.approx(0.25)}
    assert unattributed == pytest.approx(0.25)


# -- recording ---------------------------------------------------------

def test_recorder_nests_calls_per_thread():
    rec = spans.Recorder()

    def inner():
        return 3

    inner_t = spans.timed(rec, "inner", inner)

    def outer():
        return inner_t() + inner_t()

    assert spans.timed(rec, "outer", outer)() == 6
    by_layer = {}
    for s in rec.spans:
        by_layer.setdefault(s.layer, []).append(s)
    (top,) = by_layer["outer"]
    assert top.parent is None
    assert [s.parent for s in by_layer["inner"]] == [top.sid, top.sid]

    other = []
    thread = threading.Thread(target=lambda: other.append(inner_t()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and other == [3]
    assert rec.spans[-1].parent is None            # fresh thread stack


def test_classified_span_names_the_outcome():
    rec = spans.Recorder()
    load = spans.timed(rec, "cache.load", lambda key: None,
                       classify=spans._hit)
    load("k")
    assert rec.spans[-1].name == "<lambda>:miss"


def test_generator_spans_exclude_consumer_time():
    rec = spans.Recorder()

    def gen():
        for i in range(3):
            time.sleep(0.01)
            yield i

    consumer = spans.timed(rec, "consumer", lambda: time.sleep(0.05))
    out = []
    for item in spans.timed_generator(rec, "gen", gen)():
        out.append(item)
        consumer()
    assert out == [0, 1, 2]
    gen_spans = [s for s in rec.spans if s.layer == "gen"]
    assert len(gen_spans) == 4                     # 3 items + exhaustion
    assert sum(s.end - s.start for s in gen_spans) < 0.1
    assert all(s.parent is None for s in rec.spans)


def test_exceptions_still_close_the_span():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        spans.timed(rec, "boom", boom)()
    assert [s.layer for s in rec.spans] == ["boom"]
    assert spans.timed(rec, "after", lambda: 1)() == 1
    assert rec.spans[-1].parent is None


# -- spans from pool workers -------------------------------------------

WORKER_REC = spans.Recorder()


def _chunk_task(chunk):
    time.sleep(0.02)
    return {"n": len(chunk), "pid": os.getpid()}


# Replaced in place, as spans.install does: the pool pickles the entry
# point by name, so the module attribute must be the wrapper.
_chunk_task = spans.timed_chunk(WORKER_REC, "pool.chunk", _chunk_task)


def test_worker_spans_reach_the_parent_under_pool_wait():
    from repro.harness.pool import WorkerPool

    WORKER_REC.spans.clear()
    run = spans.timed_pool_run(WORKER_REC, "pool.wait", WorkerPool.run)
    with WorkerPool(2) as pool:
        payloads = run(pool, _chunk_task, [[1], [1, 2], [1, 2, 3]])
    assert [p["n"] for p in payloads] == [1, 2, 3]
    assert all(spans.SPAN_KEY not in p for p in payloads)
    (wait,) = [s for s in WORKER_REC.spans if s.layer == "pool.wait"]
    chunks = [s for s in WORKER_REC.spans if s.layer == "pool.chunk"]
    assert len(chunks) == 3
    assert {s.pid for s in chunks} == {p["pid"] for p in payloads}
    assert os.getpid() not in {s.pid for s in chunks}
    assert all(s.parent == wait.sid and s.weight == 0.5 for s in chunks)
    shares, unattributed = spans.attribute(
        WORKER_REC.spans, {(os.getpid(), threading.get_ident()):
                           wait.end - wait.start})
    assert sum(shares.values()) + unattributed == pytest.approx(1.0)
    assert shares["pool.chunk"] > 0 and shares["pool.wait"] > -1e-9


# -- installation ------------------------------------------------------

def test_install_wraps_every_lookup_site_and_uninstall_restores():
    from repro.harness import elide, experiments, parallel, pool, server

    before = (parallel.golden_for, pool.run_cell_chunk,
              parallel.elide_pairs, parallel.cache_key,
              experiments.EXPERIMENTS["e1"])
    rec = spans.Recorder()
    done = spans.install(rec)
    try:
        assert parallel.golden_for is pool.golden_for
        assert parallel.run_cell_chunk is pool.run_cell_chunk \
            is server.run_cell_chunk
        assert parallel.elide_pairs is elide.elide_pairs
        assert parallel.cache_key is elide.cache_key is server.cache_key
        assert experiments.EXPERIMENTS["e1"] is experiments.e1_main
        assert parallel.golden_for is not before[0]
        assert experiments.EXPERIMENTS["t1"] is experiments.table_t1
    finally:
        spans.uninstall(done)
    assert (parallel.golden_for, pool.run_cell_chunk,
            parallel.elide_pairs, parallel.cache_key,
            experiments.EXPERIMENTS["e1"]) == before


def test_installed_spans_cover_an_in_process_sweep(tmp_path):
    from repro.harness import experiments
    from repro.harness.cache import ResultCache
    from repro.harness.parallel import ParallelRunner
    from repro.harness.pool import reset_golden_memo

    reset_golden_memo()
    rec = spans.Recorder()
    done = spans.install(rec)
    try:
        start = time.perf_counter()
        with ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)),
                            journal=True) as runner:
            experiments.e1_main(fast=True, kernels=["vecsum"],
                                runner=runner)
        wall = time.perf_counter() - start
    finally:
        spans.uninstall(done)
    layers = {s.layer for s in rec.spans}
    assert {"experiments.table", "experiments.plan", "parallel.runner",
            "cache.load", "cache.store", "journal.record", "elide",
            "pool.golden", "arch.golden_run", "parallel.check",
            "uarch.construct", "uarch.run"} <= layers
    shares, unattributed = spans.attribute(
        rec.spans, {(os.getpid(), threading.get_ident()): wall})
    assert sum(shares.values()) + unattributed == pytest.approx(1.0)
    assert 0.0 <= unattributed < 0.5
    assert shares["uarch.run"] > 0
