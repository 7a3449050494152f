"""Every harness counter the benchmark reads still resolves.

``perfbench/`` changes only together with the benchmark itself, so a
name it reads from the runner or from ``/metrics`` must outlive any
harness refactor.  These tests call the benchmark's own readers, or
read the same keys, and fail when the harness drops one.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.harness import ParallelRunner, ResultCache, SweepPlan
from repro.harness.pool import reset_golden_memo
from repro.workloads import KERNELS

from .test_server import GRID, ServerHarness

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported the way ``perfbench/run.py``
    imports it: with ``perfbench/`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[spec.name] = module
    sys.path.insert(0, str(_PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_PERFBENCH))
    yield module
    del sys.modules[spec.name]


def test_runner_counters_resolve(workloads, tmp_path):
    reset_golden_memo()
    plan = SweepPlan()
    plan.add_points(KERNELS["vecsum"].build_test(), ("dsre", "aggressive"))
    with ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path))) as runner:
        runner.run_plan(plan)
        counters = workloads._runner_counters(runner)
    assert counters == {"golden_fresh": 1, "golden_store_hits": 0,
                        "plan_store_hits": 0, "elision_fallbacks": 0}


def test_served_metrics_keys_resolve(tmp_path):
    reset_golden_memo()             # the pool's workers fork from here
    harness = ServerHarness(tmp_path)
    try:
        harness.client.run(GRID, timeout=120)
        metrics = harness.client.metrics()["server"]
    finally:
        harness.stop()
    # The keys ServedMix.iterate reads, in its order.
    cells = metrics["cells"]
    read = [metrics["golden"]["fresh"],
            metrics["plan_store"]["golden_store_hits"],
            metrics["plan_store"]["plan_cache_hits"],
            metrics["elision"]["fallbacks"],
            cells["executed"], cells["from_cache"],
            cells["dedup_inflight_hits"],
            metrics["batches"], metrics["chunks"]]
    assert all(type(value) is int for value in read)
    assert read[1:3] == [0, 0]
    assert read[0] == 1 and cells["executed"] == 2
