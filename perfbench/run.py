"""End-to-end and per-layer benchmark of the sweep harness.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e1_full --seed 233 \
        --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``e1_full``, ``corpus_fill_cold``,
``corpus_extend_warm``, ``served_mix``.  ``--seed`` drives every corpus
sample and the served request order (default ``0xE9``, the seed the
stored output digests belong to).  ``--seconds`` is the run's time
budget: iterations repeat until the next one would end past it, but a
run makes at least the workload's minimum number of iterations, and
enough for every reported percentile to have ten samples beyond it.

``--trace 0`` runs untraced iterations and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, including tracing overhead, plus a "where
the time goes" table of each layer's self-time share of the traced
wall clock.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Every timing is rescaled to a nominal host speed: one probe process per
core (``hostspeed.py``) times a fixed loop all through the run, and each
iteration's timings are multiplied by the host speed the probes saw
while it ran; set-up samples, pinned to one core, by that core's speed.
The report prints the speeds and the unscaled wall too.

Every iteration checks its outputs: sweep workloads compare a digest
over every cell's (label, cycles, committed instructions, architectural
digest) with ``expected.json`` (seeds without a stored digest rely on
the always-on golden differential check, plus identical digests across
the run's iterations), and ``served_mix`` compares every table with
``benchmarks/golden_tables``.  ``--bless`` records the digests instead.

Run the helper tests with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans as spanlib
import workloads
from metrics import percentile, samples_needed, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: A run stops starting iterations after this long, so it exits well
#: inside the 180 s a run is allowed.
HARD_LIMIT_S = 140.0

#: Shares of the traced wall plus the unattributed share must sum to 1
#: within this, and no layer's self share may fall below ``-TOLERANCE``.
TOLERANCE = 0.005

#: The paper's two reference results (the abstract's anchors).
PAPER_DSRE_OVER_STORESET = 0.17
PAPER_DSRE_FRACTION_OF_ORACLE = 0.82

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_insts_per_s": "insts/s",
    "cells_per_s": "cells/s",
    "plans_per_s": "plans/s",
    "plan_latency_p50_s": "s",
    "plan_latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "uarch.run_s": "s",
    "uarch.insts_per_run_s": "insts/s",
    "uarch.construct_s": "s",
    "uarch.cycles": "count",
    "uarch.committed_insts": "count",
    "uarch.fu_work_issued": "count",
    "uarch.squash_frac": "ratio",
    "uarch.net_sent": "count",
    "uarch.lsq_loads_issued": "count",
    "uarch.lsq_redeliveries": "count",
    "uarch.specialize_hit_frac": "ratio",
    "uarch.plan_store_hits": "count",
    "arch.golden_run_s": "s",
    "pool.golden_s": "s",
    "pool.golden_fresh": "count",
    "pool.golden_store_hits": "count",
    "pool.chunks": "count",
    "pool.chunk_s": "s",
    "pool.wait_s": "s",
    "pool.busy_frac": "ratio",
    "cache.loads": "count",
    "cache.load_s": "s",
    "cache.hit_frac": "ratio",
    "cache.stores": "count",
    "cache.store_s": "s",
    "journal.records": "count",
    "journal.record_s": "s",
    "elide.self_s": "s",
    "elide.forwarded_frac": "ratio",
    "elide.fallbacks": "count",
    "parallel.check_s": "s",
    "parallel.decode_s": "s",
    "experiments.plan_s": "s",
    "report.render_s": "s",
    "client.submit_s": "s",
    "client.poll_s": "s",
    "client.polls": "count",
    "client.table_s": "s",
    "server.cells_executed": "count",
    "server.cells_from_cache": "count",
    "server.dedup_hits": "count",
    "server.batches": "count",
    "server.chunks": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "fail_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (pool workers, the server and its workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def latency_percentile(iterations, pct: float):
    """``(value, samples)``: the ``pct`` percentile of every iteration's
    latencies pooled, each scaled by its iteration's host speed.  Pooled,
    a run's p50 rests on all its plans, not on a handful of per-iteration
    values that each hinge on one request order."""
    pooled = [x * it.speed for it in iterations for x in it.latencies]
    return percentile(pooled, pct), len(pooled)


def end_to_end(iterations, setup):
    """Samples per end-to-end metric."""
    walls = [it.wall * it.speed for it in iterations]
    return {
        "wall_s": walls,
        "setup_s": setup,
        "sim_insts_per_s": [it.uarch["committed_insts"] / wall
                            for it, wall in zip(iterations, walls)],
        "cells_per_s": [it.cells / wall
                        for it, wall in zip(iterations, walls)],
        "plans_per_s": [it.plans / wall
                        for it, wall in zip(iterations, walls)],
        "plan_latency_p50_s": latency_percentile(iterations, 50),
        "plan_latency_p90_s": latency_percentile(iterations, 90),
        "peak_rss_mb": [peak_rss_mb()],
    }


def layer_metrics(it) -> dict:
    """Per-layer values of one traced iteration."""
    every = it.spans + it.server_spans
    totals = spanlib.layer_totals(every)
    names = spanlib.name_counts(every)

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0) * it.speed

    def total_s(layer):
        return totals.get(layer, {}).get("total_s", 0.0) * it.speed

    def count(layer):
        return totals.get(layer, {}).get("count", 0)

    _, unattributed = spanlib.attribute(it.spans, it.lanes)
    loads = count("cache.load")
    return {
        "uarch.run_s": total_s("uarch.run"),
        "uarch.insts_per_run_s": _ratio(it.uarch["committed_insts"],
                                        total_s("uarch.run")),
        "uarch.construct_s": total_s("uarch.construct"),
        "arch.golden_run_s": total_s("arch.golden_run"),
        "pool.golden_s": self_s("pool.golden"),
        "pool.chunks": count("pool.chunk"),
        "pool.chunk_s": total_s("pool.chunk"),
        "pool.wait_s": total_s("pool.wait"),
        "pool.busy_frac": _ratio(total_s("pool.chunk"),
                                 it.wall * it.speed * workloads.JOBS),
        "cache.loads": loads,
        "cache.load_s": total_s("cache.load"),
        "cache.hit_frac": _ratio(names.get("load:hit", 0), loads),
        "cache.stores": count("cache.store"),
        "cache.store_s": total_s("cache.store"),
        "journal.records": count("journal.record"),
        "journal.record_s": total_s("journal.record"),
        "elide.self_s": self_s("elide"),
        "parallel.check_s": self_s("parallel.check"),
        "parallel.decode_s": total_s("parallel.decode"),
        "experiments.plan_s": self_s("experiments.plan"),
        "report.render_s": total_s("report.render"),
        "client.submit_s": total_s("client.submit"),
        "client.poll_s": self_s("client.poll"),
        "client.polls": names.get("status", 0),
        "client.table_s": total_s("client.table"),
        "trace.unattributed_frac": unattributed,
    }


def count_metrics(it) -> dict:
    """Per-layer counts read from records and runner/server counters."""
    u = it.uarch
    c = it.counters
    return {
        "uarch.cycles": u["cycles"],
        "uarch.committed_insts": u["committed_insts"],
        "uarch.fu_work_issued": u["fu_work_issued"],
        "uarch.squash_frac": _ratio(u["squashed_executions"],
                                    u["fu_work_issued"]),
        "uarch.net_sent": u["net_sent"],
        "uarch.lsq_loads_issued": u["lsq_loads_issued"],
        "uarch.lsq_redeliveries": u["lsq_redeliveries"],
        "uarch.specialize_hit_frac": _ratio(
            u["specialize_hits"],
            u["specialize_hits"] + u["specialize_misses"]),
        "uarch.plan_store_hits": c.get("plan_store_hits", 0),
        "pool.golden_fresh": c.get("golden_fresh", 0),
        "pool.golden_store_hits": c.get("golden_store_hits", 0),
        "elide.forwarded_frac": _ratio(it.forwarded,
                                       it.forwarded + it.simulated),
        "elide.fallbacks": c.get("elision_fallbacks", 0),
        "server.cells_executed": c.get("server.cells_executed", 0),
        "server.cells_from_cache": c.get("server.cells_from_cache", 0),
        "server.dedup_hits": c.get("server.dedup_hits", 0),
        "server.batches": c.get("server.batches", 0),
        "server.chunks": c.get("server.chunks", 0),
    }


def per_layer(iterations) -> dict:
    """Samples per per-layer metric."""
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    samples = {name: [] for name in PER_LAYER_UNITS}
    for it in traced:
        for name, value in layer_metrics(it).items():
            samples[name].append(value)
    for it in iterations:
        for name, value in count_metrics(it).items():
            samples[name].append(value)
    overhead = (statistics.median(it.wall * it.speed for it in traced)
                / statistics.median(it.wall * it.speed for it in plain)
                - 1.0)
    samples["trace.overhead_frac"] = [overhead]
    attempted = sum(it.attempted for it in iterations)
    samples["fail_frac"] = [_ratio(sum(it.failed for it in iterations),
                                   attempted)]
    return samples


def where_time_goes(it) -> list:
    """Report lines: each layer's self share of one traced iteration."""
    shares, unattributed = spanlib.attribute(it.spans, it.lanes)
    lane_s = sum(it.lanes.values())
    lines = [f"where the time goes (traced wall {it.wall:.3f} s, "
             f"{len(it.lanes)} lane(s), {lane_s:.3f} lane-s; worker time "
             "weighted 1/jobs under pool.wait):"]
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:20s} {100 * share:7.2f} %")
    lines.append(f"  {'(unattributed)':20s} {100 * unattributed:7.2f} %")
    total = sum(shares.values()) + unattributed
    worst = min(shares.values(), default=0.0)
    ok = abs(total - 1.0) <= TOLERANCE and worst >= -TOLERANCE
    lines.append(f"  accounted {100 * total:.3f} % of the traced wall "
                 f"(tolerance {100 * TOLERANCE:.1f} %): "
                 + ("ok" if ok else "FAILED"))
    if it.server_spans:
        lines.append("inside the server process and its workers (self "
                     "host seconds; workers run in parallel):")
        totals = spanlib.layer_totals(it.server_spans)
        for layer, entry in sorted(totals.items(),
                                   key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {layer:20s} {entry['self_s']:9.3f} s")
    return lines


def consistency_problems(name: str, iterations) -> list:
    """Cold sweep iterations must reproduce their outputs exactly."""
    if name == "served_mix":
        return []
    seen = {(it.digest, tuple(sorted(it.uarch.items())))
            for it in iterations if not it.failed}
    if len(seen) > 1:
        return [f"{name}: {len(seen)} different cell digests or uarch "
                "counts across iterations of one seed"]
    return []


def report_lines(args, summaries, iterations, setup_note, speeds) -> list:
    raw = summarize([it.wall for it in iterations])
    lines = [
        f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
        f"{len(iterations)} iteration(s)",
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}"
        f", commit {commit()}",
        f"host speed (probe pass {1e3 * hostspeed.NOMINAL_S:g} ms = 1): "
        f"run median {speeds.median():.3f} over {len(speeds)} passes; "
        "per iteration " + " ".join(f"{it.speed:.3f}" for it in iterations),
        f"timings below are scaled by it; unscaled wall_s median "
        f"{raw['median']:.4g} s (q1 {raw['q1']:.4g}, q3 {raw['q3']:.4g})",
        setup_note,
        f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
        f"{'n':>5s}  unit",
    ]
    for name, (unit, values) in summaries.items():
        if isinstance(values, tuple):
            value, n = values
            lines.append(f"{name:28s} {value:14.6g} {'-':>14s} "
                         f"{'-':>14s} {n:5d}  {unit}")
            continue
        s = summarize(values)
        lines.append(f"{name:28s} {s['median']:14.6g} {s['q1']:14.6g} "
                     f"{s['q3']:14.6g} {s['n']:5d}  {unit}")
    return lines


def anchor_lines(iterations) -> list:
    anchors = next((it.outcome for it in iterations
                    if it.outcome and "dsre_over_storeset" in it.outcome),
                   None)
    if not anchors:
        return []
    return [
        "paper anchors (reported, never gated):",
        f"  DSRE over storeset:          {anchors['dsre_over_storeset']:+.1%}"
        f"  (paper {PAPER_DSRE_OVER_STORESET:+.0%})",
        f"  DSRE fraction of oracle:     "
        f"{anchors['dsre_fraction_of_oracle']:.1%}"
        f"  (paper {PAPER_DSRE_FRACTION_OF_ORACLE:.0%})",
        "  The abstract's two anchors are the model's only reference "
        "results; the model is otherwise unvalidated.",
    ]


def run(args) -> int:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() \
        else {}
    bless = {} if args.bless else None
    work = ROOT / ".perfbench-work" / str(os.getpid())
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    ctx = workloads.Context(ROOT, work, args.seed, expected)
    setup = []
    try:
        workload.prepare(ctx)
        iterations, durations = [], []
        with hostspeed.SpeedProbe() as probe:
            while True:
                traced = bool(args.trace) and len(iterations) % 2 == 1
                begin = time.perf_counter()
                setup += workload.setup_samples(ctx)
                iterations.append(workload.iterate(ctx, traced, bless))
                durations.append(time.perf_counter() - begin)
                elapsed = time.perf_counter() - started
                latencies = sum(len(it.latencies) for it in iterations)
                short = len(iterations) < 2 or not args.trace and (
                    len(iterations) < workload.min_iterations
                    or latencies < samples_needed(90))
                if elapsed > HARD_LIMIT_S:
                    break
                if not short and (elapsed + statistics.median(durations)
                                  > args.seconds):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()         # only when no other run uses it
        except OSError:
            pass

    speeds = probe.speeds
    for it in iterations:
        it.speed = speeds.over(it.start, it.start + it.wall)
    if not setup:
        setup = [it.setup for it in iterations]
    setup = [seconds * speeds.over(start, start + seconds, core)
             for start, seconds, core in setup]
    problems = [p for it in iterations for p in it.problems]
    problems += consistency_problems(args.workload, iterations)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)

    if args.trace:
        samples = per_layer(iterations)
        units = PER_LAYER_UNITS
    else:
        samples = end_to_end(iterations, setup)
        units = END_TO_END_UNITS
    summaries = {name: (units[name], samples[name]) for name in units}
    setup_note = ("setup_s: server start until /healthz answers, per "
                  "iteration" if args.workload == "served_mix" else
                  f"setup_s: fresh interpreter 'import repro.harness', "
                  f"{len(setup)} samples across the run") + \
        ", each pinned to one core and scaled by its speed"
    lines = report_lines(args, summaries, iterations, setup_note, speeds)
    lines += anchor_lines(iterations)
    for it in iterations:
        if it.traced:
            lines += where_time_goes(it)
            break
    for problem in problems[:20]:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))

    if bless is not None:
        merged = dict(expected)
        for key, value in bless.items():
            merged.setdefault(key, {}).update(value)
        EXPECTED.write_text(json.dumps(merged, indent=1, sort_keys=True)
                            + "\n")

    def value(v):
        return v[0] if isinstance(v, tuple) else statistics.median(v)

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value(values), "unit": unit}
                    for name, (unit, values) in summaries.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the sweep "
                    "harness (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0xE9)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--bless", action="store_true",
                        help="record this run's output digests in "
                             "expected.json instead of checking them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness" / "__init__.py").exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
