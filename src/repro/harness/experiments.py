"""The per-experiment regeneration functions (T1, T2, E1..E10).

Each function rebuilds one table/figure of the reconstructed evaluation
(see DESIGN.md for the experiment index) and returns a
:class:`~repro.stats.report.Table` whose ``data`` attribute carries the raw
numbers.  ``fast=True`` uses the kernels' small test scales (seconds);
``fast=False`` uses the default evaluation scales (minutes) and is what
EXPERIMENTS.md records.

Every timing experiment enumerates its whole (kernel, machine point,
config) grid into a :class:`~repro.harness.sweep.SweepPlan` and executes
it through a :class:`~repro.harness.parallel.ParallelRunner` — pass
``runner=ParallelRunner(jobs=N, cache=ResultCache())`` to fan the grid out
over worker processes and reuse previous results; the default is the
deterministic in-process runner with no cache, which produces tables
byte-identical to any parallel/cached run.
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterable, List, Optional, Sequence

from ..stats.counters import merge_stats
from ..stats.report import Table, geomean
from ..uarch.config import default_config
from ..workloads.common import KernelInstance
from ..workloads.corpus import build_corpus, sample_corpus
from ..workloads.registry import KERNELS
from ..workloads.synth import SynthParams, build_synthetic
from .parallel import ParallelRunner
from .runner import POINT_ORDER, golden_of
from .sweep import SweepPlan

#: Kernels with frequent true dependences (used by the recovery studies).
CONFLICT_KERNELS = ["stencil", "fibmem", "memaccum", "memmove", "bubble",
                    "histogram"]

#: A small representative mix for sweeps (one per category).
SWEEP_KERNELS = ["vecsum", "listsum", "histogram", "stencil"]


def _instances(names: Iterable[str], fast: bool) -> List[KernelInstance]:
    out = []
    for name in names:
        spec = KERNELS[name]
        out.append(spec.build_test() if fast else spec.build_default())
    return out


def _runner(runner: Optional[ParallelRunner]) -> ParallelRunner:
    return runner or ParallelRunner(jobs=1)


# ----------------------------------------------------------------------
# T1 / T2: configuration and workload characterisation
# ----------------------------------------------------------------------

def table_t1(config=None) -> Table:
    """T1 — the simulated machine configuration."""
    config = config or default_config()
    table = Table("T1. Machine configuration", ["Parameter", "Value"])
    for key, value in config.t1_rows():
        table.add_row(key, value)
    return table


def table_t2(fast: bool = True,
             runner: Optional[ParallelRunner] = None) -> Table:
    """T2 — workload characterisation from the golden model."""
    table = Table(
        "T2. Workload characterisation (functional run)",
        ["kernel", "category", "blocks", "insts", "loads", "stores",
         "dep<=8 (%)", "dep<=32 (%)"])
    for spec in KERNELS.values():
        inst = spec.build_test() if fast else spec.build_default()
        trace = golden_of(inst)
        hist = trace.dependence_distance_histogram()
        loads = trace.dynamic_loads
        near8 = sum(v for d, v in hist.items() if 1 <= d <= 8)
        near32 = sum(v for d, v in hist.items() if 1 <= d <= 32)
        table.add_row(spec.name, spec.category, trace.block_count,
                      trace.dynamic_instructions, loads,
                      trace.dynamic_stores,
                      100.0 * near8 / loads if loads else 0.0,
                      100.0 * near32 / loads if loads else 0.0)
        table.data[spec.name] = hist
    return table


# ----------------------------------------------------------------------
# E1: the main result
# ----------------------------------------------------------------------

def e1_main(fast: bool = True,
            kernels: Optional[Sequence[str]] = None,
            runner: Optional[ParallelRunner] = None) -> Table:
    """E1 — speedup of every machine point over conservative (per kernel +
    geomean); the paper's anchors are DSRE vs. storeset (+17% there) and
    DSRE as a fraction of oracle (82% there)."""
    runner = _runner(runner)
    names = list(kernels or KERNELS)
    instances = _instances(names, fast)
    plan = SweepPlan()
    grid = [plan.add_points(inst, tuple(POINT_ORDER)) for inst in instances]
    results = runner.run_plan(plan)

    table = Table("E1. Speedup over conservative (higher is better)",
                  ["kernel"] + POINT_ORDER)
    speedups: Dict[str, List[float]] = {p: [] for p in POINT_ORDER}
    for inst, indices in zip(instances, grid):
        base = results[indices["conservative"]].stats.cycles
        row = [inst.name]
        for point in POINT_ORDER:
            s = base / results[indices[point]].stats.cycles
            speedups[point].append(s)
            row.append(s)
        table.add_row(*row)
    geo = {p: geomean(v) for p, v in speedups.items()}
    table.add_row("geomean", *[geo[p] for p in POINT_ORDER])
    table.data = {
        "speedups": speedups,
        "geomean": geo,
        "dsre_over_storeset": geo["dsre"] / geo["storeset"] - 1.0,
        "dsre_fraction_of_oracle": geo["dsre"] / geo["oracle"],
    }
    return table


# ----------------------------------------------------------------------
# E2: window-size scaling
# ----------------------------------------------------------------------

def e2_window(fast: bool = True,
              frames: Sequence[int] = (1, 2, 4, 8, 16, 32),
              kernels: Sequence[str] = tuple(SWEEP_KERNELS),
              runner: Optional[ParallelRunner] = None) -> Table:
    """E2 — IPC of flush vs DSRE recovery as the window grows.

    The paper's scalability claim: selective re-execution keeps improving
    with window size while flush recovery flattens (each flush throws away
    an ever-larger window)."""
    runner = _runner(runner)
    instances = _instances(kernels, fast)
    plan = SweepPlan()
    grid = {(inst.name, point, f): plan.add(inst, point, max_frames=f)
            for inst in instances
            for point in ("storeset", "dsre")
            for f in frames}
    results = runner.run_plan(plan)

    table = Table("E2. IPC vs in-flight frames (window scaling)",
                  ["kernel", "mechanism"] + [f"{f}f" for f in frames])
    table.data = {"frames": list(frames), "ipc": {}}
    for inst in instances:
        for point in ("storeset", "dsre"):
            series = [results[grid[(inst.name, point, f)]].stats.ipc
                      for f in frames]
            table.add_row(inst.name, point, *series)
            table.data["ipc"][(inst.name, point)] = series
    return table


# ----------------------------------------------------------------------
# E3: recovery cost
# ----------------------------------------------------------------------

def e3_recovery_cost(fast: bool = True,
                     kernels: Sequence[str] = tuple(CONFLICT_KERNELS),
                     runner: Optional[ParallelRunner] = None) -> Table:
    """E3 — what one mis-speculation costs under each mechanism:
    instructions squashed per violation (flush) vs instructions re-executed
    per re-delivery (DSRE)."""
    runner = _runner(runner)
    instances = _instances(kernels, fast)
    plan = SweepPlan()
    grid = {(inst.name, point): plan.add(inst, point)
            for inst in instances for point in ("aggressive", "dsre")}
    results = runner.run_plan(plan)

    table = Table(
        "E3. Recovery cost per mis-speculation",
        ["kernel", "violations", "squashed/violation",
         "redeliveries", "reexec/redelivery"])
    table.data = {}
    for inst in instances:
        flush = results[grid[(inst.name, "aggressive")]].stats
        dsre = results[grid[(inst.name, "dsre")]].stats
        spv = (flush.squashed_executions / flush.violation_flushes
               if flush.violation_flushes else 0.0)
        rpr = (dsre.reexecutions / dsre.load_redeliveries
               if dsre.load_redeliveries else 0.0)
        table.add_row(inst.name, flush.violation_flushes, spv,
                      dsre.load_redeliveries, rpr)
        table.data[inst.name] = {
            "violations": flush.violation_flushes,
            "squashed_per_violation": spv,
            "redeliveries": dsre.load_redeliveries,
            "reexec_per_redelivery": rpr,
        }
    return table


# ----------------------------------------------------------------------
# E4: dependence-policy comparison (including cross products)
# ----------------------------------------------------------------------

#: The six (policy, recovery) combinations of the original E4 study — the
#: exact grid whose published table bytes the golden-table check pins.
E4_LEGACY_COMBOS = (
    ("conservative", "flush"), ("aggressive", "flush"),
    ("storeset", "flush"), ("oracle", "flush"),
    ("aggressive", "dsre"), ("storeset", "dsre"),
)

#: Current default E4 grid: the legacy study plus the hybrid protocol.
E4_COMBOS = E4_LEGACY_COMBOS + (("aggressive", "hybrid"),)


def e4_policies(fast: bool = True,
                kernels: Optional[Sequence[str]] = None,
                runner: Optional[ParallelRunner] = None,
                combos: Optional[Sequence] = None) -> Table:
    """E4 — IPC of every (policy, recovery) combination, including the
    store-set + DSRE cross and the bounded-re-delivery ``hybrid`` protocol
    that the standard five-point study omits."""
    combos = list(combos if combos is not None else E4_COMBOS)
    runner = _runner(runner)
    names = list(kernels or CONFLICT_KERNELS)
    instances = _instances(names, fast)
    plan = SweepPlan()
    grid = {(inst.name, policy, recovery):
            plan.add(inst, None, dependence_policy=policy, recovery=recovery)
            for inst in instances for policy, recovery in combos}
    results = runner.run_plan(plan)

    headers = ["kernel"] + [f"{p[:4]}/{r[:2]}" for p, r in combos]
    table = Table("E4. IPC by (policy, recovery)", headers)
    table.data = {"combos": combos, "ipc": {}}
    for inst in instances:
        row = [inst.name]
        for policy, recovery in combos:
            ipc = results[grid[(inst.name, policy, recovery)]].stats.ipc
            row.append(ipc)
            table.data["ipc"][(inst.name, policy, recovery)] = ipc
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# E5: operand-network sensitivity
# ----------------------------------------------------------------------

def e5_network(fast: bool = True,
               hop_latencies: Sequence[int] = (1, 2, 4),
               kernels: Sequence[str] = tuple(SWEEP_KERNELS),
               runner: Optional[ParallelRunner] = None) -> Table:
    """E5 — sensitivity to operand-network hop latency.

    DSRE's waves (and its commit wave) ride the operand network, so it
    should degrade faster than flush recovery as hops get slower."""
    runner = _runner(runner)
    instances = _instances(kernels, fast)
    plan = SweepPlan()
    grid = {(inst.name, point, hop): plan.add(inst, point, hop_latency=hop)
            for inst in instances
            for point in ("storeset", "dsre")
            for hop in hop_latencies}
    results = runner.run_plan(plan)

    table = Table("E5. IPC vs network hop latency",
                  ["kernel", "mechanism"] + [f"hop={h}" for h in
                                             hop_latencies])
    table.data = {"hops": list(hop_latencies), "ipc": {}}
    for inst in instances:
        for point in ("storeset", "dsre"):
            series = [results[grid[(inst.name, point, hop)]].stats.ipc
                      for hop in hop_latencies]
            table.add_row(inst.name, point, *series)
            table.data["ipc"][(inst.name, point)] = series
    return table


# ----------------------------------------------------------------------
# E6: commit-wave overhead
# ----------------------------------------------------------------------

def e6_commit_wave(fast: bool = True,
                   kernels: Optional[Sequence[str]] = None,
                   runner: Optional[ParallelRunner] = None) -> Table:
    """E6 — what the commit wave costs: operand-network messages and FU
    executions per committed instruction, DSRE vs the store-set baseline."""
    runner = _runner(runner)
    names = list(kernels or KERNELS)
    instances = _instances(names, fast)
    plan = SweepPlan()
    grid = {(inst.name, point): plan.add(inst, point)
            for inst in instances for point in ("storeset", "dsre")}
    results = runner.run_plan(plan)

    table = Table(
        "E6. Execution & network overhead per committed instruction",
        ["kernel", "msgs/inst (ss)", "msgs/inst (dsre)",
         "final msgs (dsre %)", "exec/inst (ss)", "exec/inst (dsre)"])
    table.data = {}
    for inst in instances:
        ss = results[grid[(inst.name, "storeset")]]
        ds = results[grid[(inst.name, "dsre")]]
        ci_ss = max(1, ss.stats.committed_instructions)
        ci_ds = max(1, ds.stats.committed_instructions)
        final_pct = (100.0 * ds.network_stats.final_sent
                     / max(1, ds.network_stats.sent))
        table.add_row(
            inst.name,
            ss.network_stats.sent / ci_ss,
            ds.network_stats.sent / ci_ds,
            final_pct,
            ss.stats.executions / ci_ss,
            ds.stats.executions / ci_ds)
        table.data[inst.name] = {
            "msgs_ss": ss.network_stats.sent / ci_ss,
            "msgs_dsre": ds.network_stats.sent / ci_ds,
            "final_pct": final_pct,
            "exec_ss": ss.stats.executions / ci_ss,
            "exec_dsre": ds.stats.executions / ci_ds,
        }
    return table


# ----------------------------------------------------------------------
# E7: synthetic conflict-rate sweep
# ----------------------------------------------------------------------

def e7_conflict_sweep(fast: bool = True,
                      rates: Sequence[float] = (0.0, 0.1, 0.25, 0.5,
                                                0.75, 1.0),
                      distance: int = 1,
                      runner: Optional[ParallelRunner] = None) -> Table:
    """E7 — cycles (normalised to oracle) vs true-dependence rate on the
    synthetic chain: where does predictor+flush cross DSRE?"""
    runner = _runner(runner)
    n_blocks = 80 if fast else 300
    points = ("aggressive", "storeset", "dsre", "oracle")
    plan = SweepPlan()
    grid = {}
    for rate in rates:
        inst = build_synthetic(SynthParams(
            n_blocks=n_blocks, conflict_rate=rate, distance=distance))
        for point in points:
            grid[(rate, point)] = plan.add(inst, point)
    results = runner.run_plan(plan)

    table = Table(
        "E7. Normalised cycles vs conflict rate (synthetic, lower=better)",
        ["conflict rate", "aggressive", "storeset", "dsre", "oracle"])
    table.data = {"rates": list(rates), "norm": {}}
    for rate in rates:
        oracle = results[grid[(rate, "oracle")]].stats.cycles
        row = [f"{rate:.2f}"]
        for point in points:
            norm = results[grid[(rate, point)]].stats.cycles / oracle
            table.data["norm"].setdefault(point, []).append(norm)
            row.append(norm)
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# E8: store-set table-size ablation
# ----------------------------------------------------------------------

def e8_storeset_ablation(fast: bool = True,
                         sizes: Sequence[int] = (16, 64, 256, 1024),
                         kernels: Sequence[str] = ("histogram", "bubble",
                                                   "stencil", "hashins"),
                         runner: Optional[ParallelRunner] = None) -> Table:
    """E8 — predictor capacity vs recovery mechanism: IPC of storeset+flush
    across SSIT sizes, with DSRE (no predictor) as the reference line."""
    runner = _runner(runner)
    instances = _instances(kernels, fast)
    plan = SweepPlan()
    grid = {}
    for inst in instances:
        for size in sizes:
            grid[(inst.name, size)] = plan.add(
                inst, "storeset", storeset_ssit_size=size)
        grid[(inst.name, "dsre")] = plan.add(inst, "dsre")
    results = runner.run_plan(plan)

    table = Table("E8. IPC vs SSIT size (DSRE shown for reference)",
                  ["kernel"] + [f"ssit={s}" for s in sizes] + ["dsre"])
    table.data = {"sizes": list(sizes), "ipc": {}}
    for inst in instances:
        series = [results[grid[(inst.name, size)]].stats.ipc
                  for size in sizes]
        dsre = results[grid[(inst.name, "dsre")]].stats.ipc
        table.add_row(inst.name, *series, dsre)
        table.data["ipc"][inst.name] = {"storeset": series, "dsre": dsre}
    return table


# ----------------------------------------------------------------------
# E9: corpus-scale protocol ordering
# ----------------------------------------------------------------------

#: E9's pinned six machine points, in presentation order (the legacy
#: five-point study plus the hybrid protocol).  Deliberately *not* the
#: full registered set: E9's golden bytes predate txwave, and its cells
#: stay shareable with E10's legacy columns in the result cache.
E9_POINTS = tuple(POINT_ORDER) + ("hybrid",)

#: Default corpus sample sizes (programs, not cells; each program runs
#: across every point of the chosen grid).
E9_FAST_SAMPLE = 12
E9_FULL_SAMPLE = 48


def corpus_plan(fast: bool = True, sample: Optional[int] = None,
                seed: int = 0xE9, points: Sequence[str] = E9_POINTS):
    """A corpus sweep plan: a seeded corpus sample × ``points``.

    Returns ``(plan, cells)`` where ``cells`` is a list of
    ``(CorpusParams, {point: plan index})`` pairs in sample order.  The
    plan is a pure function of ``(fast, sample, seed, points)`` — same
    arguments, same cell keys, same plan digest — which is what makes
    corpus sweeps resumable across processes and shardable across hosts.
    E9 uses the legacy six points; E10 and ``cli corpus fill`` use the
    full registered set, whose legacy cells share the same cache records.
    """
    count = int(sample) if sample is not None else (
        E9_FAST_SAMPLE if fast else E9_FULL_SAMPLE)
    plan = SweepPlan()
    cells = []
    for params in sample_corpus(count, seed=seed, fast=fast):
        instance = build_corpus(params)
        indices = plan.add_points(instance, tuple(points))
        cells.append((params, indices))
    return plan, cells


def e9_corpus_ordering(fast: bool = True,
                       sample: Optional[int] = None,
                       seed: int = 0xE9,
                       runner: Optional[ParallelRunner] = None) -> Table:
    """E9 — aggregate protocol ordering over a generated corpus.

    Runs every sampled corpus program across the six E9 machine points
    and reports each point's geomean speedup over conservative, the induced
    protocol ordering, and — against the paper's Anchor A claim (DSRE
    beats store-sets) — the listing of *inversion* programs where
    store-sets wins, with their exact generator parameters so any
    inversion reproduces from its seed."""
    runner = _runner(runner)
    plan, cells = corpus_plan(fast=fast, sample=sample, seed=seed)
    results = runner.run_plan(plan)

    speedups: Dict[str, List[float]] = {p: [] for p in E9_POINTS}
    per_program: Dict[str, Dict[str, float]] = {}
    inversions: List[dict] = []
    for params, indices in cells:
        base = results[indices["conservative"]].stats.cycles
        per = {}
        for point in E9_POINTS:
            s = base / results[indices[point]].stats.cycles
            speedups[point].append(s)
            per[point] = s
        per_program[params.label()] = per
        if per["dsre"] < per["storeset"]:
            inversions.append({
                "label": params.label(),
                "params": params.canonical(),
                "dsre": per["dsre"],
                "storeset": per["storeset"],
            })

    geo = {p: geomean(speedups[p]) for p in E9_POINTS}
    ordering = sorted(E9_POINTS,
                      key=lambda p: (-geo[p], E9_POINTS.index(p)))
    table = Table(
        "E9. Corpus protocol ordering "
        f"(geomean speedup over conservative, {len(cells)} programs)",
        ["rank", "point", "geomean", "min", "max"])
    for rank, point in enumerate(ordering, start=1):
        table.add_row(rank, point, geo[point],
                      min(speedups[point]), max(speedups[point]))

    holds = len(cells) - len(inversions)
    table.add_footer("ordering: " + " > ".join(ordering))
    table.add_footer(
        f"Anchor A (dsre > storeset): holds on {holds}/{len(cells)} "
        f"programs; geomean dsre/storeset = "
        f"{geo['dsre'] / geo['storeset']:.3f}")
    if inversions:
        table.add_footer("inversions (storeset wins):")
        for inv in inversions:
            table.add_footer(
                f"  {inv['label']}: dsre {inv['dsre']:.3f} < "
                f"storeset {inv['storeset']:.3f}  [{inv['params']}]")
    else:
        table.add_footer("inversions (storeset wins): none")

    table.data = {
        "points": list(E9_POINTS),
        "seed": seed,
        "programs": len(cells),
        "geomean": geo,
        "ordering": ordering,
        "speedups": per_program,
        "inversions": inversions,
        "anchor_a": {
            "holds": holds,
            "programs": len(cells),
            "dsre_over_storeset": geo["dsre"] / geo["storeset"] - 1.0,
        },
    }
    return table


# ----------------------------------------------------------------------
# E10: squash-work attribution
# ----------------------------------------------------------------------

#: The full registered point set, in presentation order: the legacy six
#: (E9's grid — cache records shared with it) plus the transactional-wave
#: protocol.
E10_POINTS = tuple(POINT_ORDER) + ("hybrid", "txwave")


def e10_squash_work(fast: bool = True,
                    sample: Optional[int] = None,
                    seed: int = 0xE9,
                    runner: Optional[ParallelRunner] = None) -> Table:
    """E10 — what each protocol's mis-speculation handling *costs*.

    Speedup tables (E1, E9) rank protocols by cycles; this experiment
    ranks them by *work*: across the corpus sample, how much issued FU
    work each protocol commits versus throws away, how many corrected
    operands it re-delivers, how much wave re-send traffic its recovery
    generates, and — for epoch-granular protocols — how deep its
    rollbacks reach.  Work accounting is closed: every point satisfies
    ``fu_work_issued == fu_work_committed + squashed_executions``
    exactly (the conformance suite asserts this per run).
    """
    runner = _runner(runner)
    plan, cells = corpus_plan(fast=fast, sample=sample, seed=seed,
                              points=E10_POINTS)
    results = runner.run_plan(plan)

    table = Table(
        f"E10. Squash-work attribution ({len(cells)} corpus programs)",
        ["point", "fu work/ci", "committed %", "squashed %",
         "redeliv/1k ci", "resend/1k ci", "final/1k ci",
         "rollbacks", "depth/rb"])
    table.data = {"points": list(E10_POINTS), "seed": seed,
                  "programs": len(cells), "work": {}}
    squash_share: Dict[str, float] = {}
    for point in E10_POINTS:
        agg = merge_stats([results[indices[point]].stats
                           for _, indices in cells])
        final_sent = sum(results[indices[point]].network_stats.final_sent
                         for _, indices in cells)
        assert agg.fu_work_issued == (agg.fu_work_committed
                                      + agg.squashed_executions), point
        ci = max(1, agg.committed_instructions)
        issued = max(1, agg.fu_work_issued)
        committed_pct = 100.0 * agg.fu_work_committed / issued
        squashed_pct = 100.0 * agg.squashed_executions / issued
        depth = (agg.epoch_rollback_depth / agg.epoch_rollbacks
                 if agg.epoch_rollbacks else 0.0)
        table.add_row(point, agg.fu_work_issued / ci, committed_pct,
                      squashed_pct,
                      1000.0 * agg.load_redeliveries / ci,
                      1000.0 * agg.wave_operand_sends / ci,
                      1000.0 * final_sent / ci,
                      agg.epoch_rollbacks, depth)
        squash_share[point] = squashed_pct
        table.data["work"][point] = {
            "fu_work_issued": agg.fu_work_issued,
            "fu_work_committed": agg.fu_work_committed,
            "squashed_executions": agg.squashed_executions,
            "committed_instructions": agg.committed_instructions,
            "load_redeliveries": agg.load_redeliveries,
            "wave_operand_sends": agg.wave_operand_sends,
            "final_sent": final_sent,
            "epoch_rollbacks": agg.epoch_rollbacks,
            "epoch_rollback_depth": agg.epoch_rollback_depth,
        }
    ordering = sorted(E10_POINTS,
                      key=lambda p: (squash_share[p], E10_POINTS.index(p)))
    table.add_footer("least squashed work: " + " < ".join(ordering))
    table.add_footer("work accounting closed on every point "
                     "(issued == committed + squashed)")
    table.data["ordering"] = ordering
    return table


#: Every regenerable artifact, keyed by its DESIGN.md experiment id.
EXPERIMENTS = {
    "t1": table_t1,
    "t2": table_t2,
    "e1": e1_main,
    "e2": e2_window,
    "e3": e3_recovery_cost,
    "e4": e4_policies,
    "e5": e5_network,
    "e6": e6_commit_wave,
    "e7": e7_conflict_sweep,
    "e8": e8_storeset_ablation,
    "e9": e9_corpus_ordering,
    "e10": e10_squash_work,
}


def run_experiment(name: str, fast: bool, runner: ParallelRunner,
                   kernels: Optional[Sequence[str]] = None,
                   sample: Optional[int] = None) -> str:
    """Render experiment ``name``'s table: the one dispatcher behind the
    CLI and the sweep server, so both print the same bytes.

    ``kernels`` and ``sample`` reach only the experiments whose
    signature takes them; T1 simulates nothing and takes neither.
    """
    func = EXPERIMENTS[name]
    if func is table_t1:
        return table_t1().render()
    kwargs = {"fast": fast, "runner": runner}
    params = inspect.signature(func).parameters
    if kernels and "kernels" in params:
        kwargs["kernels"] = kernels
    if sample is not None and "sample" in params:
        kwargs["sample"] = sample
    return func(**kwargs).render()
