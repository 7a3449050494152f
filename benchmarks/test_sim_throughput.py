"""Simulator throughput: how fast the Python model itself runs.

Not a paper experiment — a health metric for the repository.  Regressions
here make the full-scale harness painful, so this file does two jobs:

* pin absolute floors (the model must stay usable at all), and
* measure a (kernel x machine point) throughput grid, emit it as
  ``BENCH_sim.json``, and gate against the committed
  ``benchmarks/BENCH_baseline.json``: every cell's committed digest,
  cycle count and committed-instruction count must equal the recorded
  cell exactly (speed work may change only wall clock), and normalized
  throughput may not regress past the tolerance.

Raw inst/s numbers are machine-dependent, so the regression gate compares
*normalized* throughput: the simulator's committed-instructions/sec divided
by the reference functional interpreter's instructions/sec measured in the
same process.  Both are pure Python, so the ratio cancels most of the
host-speed difference between the machine that recorded the baseline and
the machine running the check.  The yardstick is
:mod:`repro.arch.interp_ref`, the interpreter the baseline was recorded
against, not the compiled golden model production runs: a faster golden
model must not move the gate.

Environment knobs:

* ``BENCH_FULL=1`` — run every kernel at its full evaluation scale
  (minutes) instead of the pinned CI subset at test scales (seconds).
* ``BENCH_UPDATE_BASELINE=1`` — rewrite ``benchmarks/BENCH_baseline.json``
  with this run's numbers instead of gating against it.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.arch import interp_ref, run_program
from repro.harness import (ParallelRunner, SweepPlan, arch_state_digest,
                           reset_golden_memo)
from repro.harness.runner import POINT_ORDER, golden_of, run_point
from repro.workloads import KERNELS

#: Small kernel mix for the CI grid: memory-parallel (vecsum), pointer
#: chain (listsum), serial/busy (crc), and conflict-heavy (stencil).
GRID_KERNELS = ("vecsum", "listsum", "crc", "stencil")

#: Benchmark machine points: the pinned 5-point display order plus the
#: hybrid and txwave protocols, so all seven registered recovery/policy
#: combinations are regression-gated.  (POINT_ORDER itself stays pinned
#: to the paper's 5-column tables — see repro.harness.runner.)
BENCH_POINTS = tuple(POINT_ORDER) + ("hybrid", "txwave")

#: Allowed normalized-throughput regression vs the committed baseline.
REGRESSION_TOLERANCE = 0.20

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"
OUTPUT_PATH = REPO_ROOT / "BENCH_sim.json"


def _calibration_rate() -> float:
    """Reference-interpreter inst/s: the host-speed yardstick."""
    instance = KERNELS["dotprod"].build(800)
    interp_ref.run_program(instance.program, instance.initial_regs)  # warm
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        trace, _ = interp_ref.run_program(instance.program,
                                          instance.initial_regs)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return trace.dynamic_instructions / best


def _identity(cell) -> tuple:
    """What a grid cell computed, as opposed to how fast."""
    return cell["digest"], cell["cycles"], cell["insts"]


def _grid_instances(full: bool):
    if full:
        return [(name, spec.build_default()) for name, spec in
                KERNELS.items()]
    return [(name, KERNELS[name].build_test()) for name in GRID_KERNELS]


def test_simulator_throughput_grid():
    full = os.environ.get("BENCH_FULL") == "1"
    update = os.environ.get("BENCH_UPDATE_BASELINE") == "1"
    calibration = _calibration_rate()

    cells = {}
    rates = []
    kernel_rates = {}
    for name, instance in _grid_instances(full):
        golden_of(instance)                  # exclude golden from timing
        for point in BENCH_POINTS:
            run_point(instance, point)       # warm (templates, caches)
            best = None
            for _ in range(2):
                t0 = time.perf_counter()
                result = run_point(instance, point)
                dt = time.perf_counter() - t0
                if best is None or dt < best:
                    best = dt
            rate = result.stats.committed_instructions / best
            cells[f"{name}/{point}"] = {
                "insts": result.stats.committed_instructions,
                "cycles": result.stats.cycles,
                "digest": arch_state_digest(result.arch),
                "secs": round(best, 6),
                "rate": round(rate, 1),
            }
            rates.append(rate)
            kernel_rates.setdefault(name, []).append(rate)

    geomean = math.exp(sum(math.log(r) for r in rates) / len(rates))
    normalized = geomean / calibration
    # Per-kernel normalized throughput: each kernel's geomean rate across
    # the machine points, divided by the same functional-interpreter
    # calibration — comparable across hosts, and it names which kernel a
    # grid-level regression comes from.
    kernels = {
        name: {
            "geomean_rate": round(
                math.exp(sum(math.log(r) for r in krs) / len(krs)), 1),
            "normalized": round(
                math.exp(sum(math.log(r) for r in krs) / len(krs))
                / calibration, 5),
        }
        for name, krs in kernel_rates.items()
    }
    report = {
        "full": full,
        "cells": cells,
        "kernels": kernels,
        "geomean_rate": round(geomean, 1),
        "calibration_rate": round(calibration, 1),
        "normalized": round(normalized, 5),
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=1, sort_keys=True)
                           + "\n")

    if update:
        BASELINE_PATH.write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
        return
    if full or not BASELINE_PATH.exists():
        # The committed baseline records the CI-subset grid; full-scale
        # runs just emit BENCH_sim.json for the trajectory record.
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    recorded = baseline["cells"]
    assert set(cells) == set(recorded), sorted(set(cells) ^ set(recorded))
    drifted = [name for name in sorted(cells)
               if _identity(cells[name]) != _identity(recorded[name])]
    assert not drifted, (
        f"cells drifted from BENCH_baseline.json in (digest, cycles, "
        f"committed instructions): {drifted}")
    floor = baseline["normalized"] * (1.0 - REGRESSION_TOLERANCE)
    assert normalized >= floor, (
        f"simulator throughput regressed: normalized {normalized:.4f} < "
        f"{floor:.4f} (baseline {baseline['normalized']:.4f} - "
        f"{REGRESSION_TOLERANCE:.0%}); if intentional, rerun with "
        f"BENCH_UPDATE_BASELINE=1 and commit BENCH_baseline.json")


def test_sweep_wall_clock():
    """Sweep-level wall clock + zero-redundancy gate.

    Runs the uncached CI grid (every GRID_KERNELS kernel at every
    BENCH_POINTS machine point) through the pooled harness and records
    the sweep-level numbers — wall seconds, cells/sec, and golden runs
    per kernel — into the ``sweep`` section of ``BENCH_sim.json``.

    The hard gate is *redundancy*, which is machine-independent: with a
    cold golden memo and kernel-affine chunking, each kernel's golden
    trace must be derived at most once across the whole sweep
    (``golden_runs_per_kernel <= 1.0``).  Wall clock is recorded for the
    trajectory record but not gated (host-dependent).
    """
    reset_golden_memo()
    plan = SweepPlan()
    for _, instance in _grid_instances(False):
        for point in BENCH_POINTS:
            plan.add(instance, point)
    jobs = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    with ParallelRunner(jobs=jobs, cache=None) as runner:
        results = runner.run_plan(plan)
    wall = time.perf_counter() - t0
    assert len(results) == len(plan)

    metrics = runner.last_metrics
    assert metrics is not None
    # Nothing silently cached: every cell was either simulated or served
    # by cross-point elision from a clean same-class representative.
    assert metrics.executed + metrics.elided_cells == len(plan)
    assert metrics.golden_runs_per_kernel <= 1.0, (
        f"redundant golden derivations: {metrics.golden_fresh_runs} fresh "
        f"golden runs for {metrics.kernels_executed} kernels — the "
        f"kernel-affine scheduler must pay each golden trace at most once")

    sweep = {"jobs": jobs, "total_wall_secs": round(wall, 4)}
    sweep.update(metrics.as_dict())
    report = {}
    if OUTPUT_PATH.exists():
        report = json.loads(OUTPUT_PATH.read_text())
    report["sweep"] = sweep
    OUTPUT_PATH.write_text(json.dumps(report, indent=1, sort_keys=True)
                           + "\n")


def test_simulator_throughput(benchmark):
    instance = KERNELS["vecsum"].build(200)
    golden_of(instance)                      # exclude golden run from timing

    def simulate():
        return run_point(instance, "dsre")

    result = benchmark.pedantic(simulate, rounds=3, iterations=1)
    committed = result.stats.committed_instructions
    elapsed = benchmark.stats.stats.mean
    rate = committed / elapsed
    benchmark.extra_info["committed_insts"] = committed
    benchmark.extra_info["insts_per_sec"] = round(rate)
    # Floor: the model must stay usable (>2k committed inst/s here).
    assert rate > 2_000


def test_functional_model_throughput(benchmark):
    instance = KERNELS["dotprod"].build(800)

    def interpret():
        return run_program(instance.program, instance.initial_regs)

    trace, _ = benchmark.pedantic(interpret, rounds=3, iterations=1)
    rate = trace.dynamic_instructions / benchmark.stats.stats.mean
    benchmark.extra_info["insts_per_sec"] = round(rate)
    # The golden model is roughly an order of magnitude faster.
    assert rate > 20_000
