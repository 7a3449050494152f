"""Command-line entry point: regenerate any experiment table.

Usage::

    python -m repro.harness.cli t1 e1 --full
    python -m repro.harness.cli all --full --jobs 8   # parallel, cached
    python -m repro.harness.cli e1 --jobs 2 --kernels vecsum,queue
    python -m repro.harness.cli all --no-cache        # force re-simulation
    python -m repro.harness.cli cache stats
    python -m repro.harness.cli cache clear
    python -m repro.harness.cli list
    python -m repro.harness.cli serve --port 8321     # sweep server
    python -m repro.harness.cli corpus fill --count 48 --shard 0/4
    python -m repro.harness.cli corpus status         # journal summaries

``--full`` uses the default evaluation scales (minutes); without it the
fast test scales run in seconds.  Timing results are cached under
``.repro-cache/`` (content-addressed by program + machine configuration),
so re-runs only pay for cells whose inputs changed; ``--jobs N`` fans
un-cached cells out over N worker processes (``--jobs 1`` is the
deterministic in-process fallback).  Tables are byte-identical for any
combination of ``--jobs`` and cache state.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List

from .cache import ResultCache
from .experiments import EXPERIMENTS, run_experiment
from .metrics import merge_session_metrics, session_lines
from .parallel import ParallelRunner


def _cache_command(args: List[str], root: str) -> int:
    cache = ResultCache(root)
    if args == ["stats"]:
        stats = cache.stats()
        print(f"cache root      {stats['root']}")
        print(f"entries         {stats['entries']}")
        print(f"size            {stats['bytes'] / 1024.0:.1f} KiB")
        print(f"schema version  {stats['schema']}")
        if stats["stale_or_corrupt"]:
            print(f"stale/corrupt   {stats['stale_or_corrupt']}")
        if stats["orphan_tmp"]:
            print(f"orphan tmp      {stats['orphan_tmp']} "
                  f"(reaped by 'cache clear' when aged)")
        for kernel, count in stats["per_kernel"].items():
            print(f"  {kernel:12s} {count}")
        # The session counters, merged across every process that ever
        # wrote a ``session.<pid>.json`` shard here.
        merged = merge_session_metrics(root)
        if merged is not None:
            print("\n".join(session_lines(merged)))
        return 0
    if args == ["clear"]:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    print("usage: cli cache {stats,clear}", file=sys.stderr)
    return 2


def _serve_command(argv: List[str]) -> int:
    """``cli serve``: run the sweep server until SIGTERM/SIGINT."""
    from .server import ServerConfig, SweepServer

    parser = argparse.ArgumentParser(
        prog="repro-harness serve",
        description="Run the long-lived sweep server (POST /plans, "
                    "GET /plans/<id>, /metrics, /healthz)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321,
                        help="listen port; 0 picks a free one "
                             "(default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes (default: all CPUs)")
    parser.add_argument("--cache-dir", default=".repro-cache")
    parser.add_argument("--batch-window", type=float, default=0.02,
                        metavar="SEC",
                        help="submission-coalescing window "
                             "(default: %(default)s)")
    parser.add_argument("--drain-linger", type=float, default=1.0,
                        metavar="SEC",
                        help="serve GETs this long after the last plan "
                             "finishes during drain "
                             "(default: %(default)s)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(for scripts using --port 0)")
    args = parser.parse_args(argv)

    config = ServerConfig(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=args.cache_dir, batch_window=args.batch_window,
        drain_linger=args.drain_linger)
    return SweepServer(config).serve_forever(port_file=args.port_file)


def _parse_shard(text: str):
    """``i/n`` → ``(i, n)`` with ``0 <= i < n`` (digest-range claiming)."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad shard {text!r}: expected i/n, e.g. 0/4")
    if not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"bad shard {text!r}: need 0 <= i < n")
    return index, count


def _corpus_command(argv: List[str]) -> int:
    """``cli corpus``: shard-aware corpus cache fills and journal status.

    ``fill`` executes this shard's share of the corpus plan into the
    shared cache root (journaled, so a crashed fill resumes with zero
    re-executed cells); ``status`` summarises every plan journal under
    the root.  The default grid covers every registered machine point
    (``--points e10``); since the E9 grid is a strict subset, an
    unsharded ``cli e9`` or ``cli e10`` afterwards renders its table
    entirely from the merged cache.
    """
    from .experiments import E10_POINTS, E9_POINTS, corpus_plan
    from .journal import PlanJournal, journals_under

    parser = argparse.ArgumentParser(
        prog="repro-harness corpus",
        description="Fill the result cache with corpus cells "
                    "(shardable, resumable) or inspect plan journals")
    parser.add_argument("action", choices=["fill", "status"])
    parser.add_argument("--count", type=int, default=None, metavar="N",
                        help="corpus programs to sample (default: the "
                             "E9 sample size for the chosen scale)")
    parser.add_argument("--seed", type=int, default=0xE9,
                        help="corpus sample seed (default: %(default)s)")
    parser.add_argument("--points", choices=["e9", "e10"], default="e10",
                        help="machine-point grid: e9 = the legacy six, "
                             "e10 = all registered points "
                             "(default: %(default)s)")
    parser.add_argument("--shard", type=_parse_shard, default=None,
                        metavar="i/n",
                        help="claim only cells whose cache-key digest "
                             "falls in slice i of n (default: all)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all CPUs)")
    parser.add_argument("--full", action="store_true",
                        help="use the full corpus scale (slow)")
    parser.add_argument("--cache-dir", default=".repro-cache")
    args = parser.parse_args(argv)

    if args.action == "status":
        digests = journals_under(args.cache_dir)
        if not digests:
            print(f"no plan journals under {args.cache_dir}")
            return 0
        for digest in digests:
            summary = PlanJournal(args.cache_dir, digest).summary()
            cells = summary["cells"]
            print(f"plan {digest[:12]}  "
                  f"cells {cells if cells is not None else '?'}  "
                  f"completed {summary['completed']}  "
                  f"executed {summary['executed_lines']}  "
                  f"forwarded {summary['forwarded_lines']}  "
                  f"cached {summary['cache_lines']}  "
                  f"re-executed {summary['reexecuted_cells']}")
        return 0

    fast = not args.full
    points = E9_POINTS if args.points == "e9" else E10_POINTS
    plan, cells = corpus_plan(fast=fast, sample=args.count, seed=args.seed,
                              points=points)
    cache = ResultCache(args.cache_dir, shard=args.shard)
    with ParallelRunner(jobs=args.jobs, cache=cache,
                        journal=True) as runner:
        outcome = runner.fill_plan(plan)
    shard = f"shard {args.shard[0]}/{args.shard[1]}  " if args.shard else ""
    print(f"plan {outcome['plan'][:12]}  {shard}"
          f"cells {outcome['cells']}  executed {outcome['executed']}  "
          f"elided {outcome['elided']}  "
          f"from-cache {outcome['from_cache']}  "
          f"foreign {outcome['foreign']}")
    print(f"[sweep: {runner.summary()}]")
    return 0


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    if argv and argv[0] == "serve":
        return _serve_command(argv[1:])
    if argv and argv[0] == "corpus":
        return _corpus_command(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate evaluation tables for the DSRE reproduction")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids (t1 t2 e1..e10), 'all'/'list', "
                             "or 'cache stats'/'cache clear'")
    parser.add_argument("--full", action="store_true",
                        help="use full evaluation scales (slow)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for timing simulations "
                             "(default: all CPUs; 1 = in-process)")
    parser.add_argument("--kernels", default=None, metavar="A,B,..",
                        help="restrict kernel-selectable experiments to "
                             "this comma-separated subset")
    parser.add_argument("--corpus-sample", type=int, default=None,
                        metavar="N",
                        help="corpus programs for sampled experiments "
                             "(e9/e10; default: the experiment's own size)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result cache directory "
                             "(default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the hottest "
                             "functions after the tables (forces --jobs 1 "
                             "so simulation work stays in-process)")
    parser.add_argument("--profile-top", type=int, default=25, metavar="N",
                        help="rows of profile output with --profile "
                             "(default: %(default)s)")
    parser.add_argument("--profile-sort", default="cumulative",
                        choices=("cumulative", "tottime"),
                        help="profile row ordering with --profile: "
                             "'cumulative' surfaces call-tree roots, "
                             "'tottime' surfaces hot leaf functions "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    if args.experiments[0] == "cache":
        return _cache_command(args.experiments[1:], args.cache_dir)

    wanted = args.experiments
    if wanted == ["list"]:
        for key, func in EXPERIMENTS.items():
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{key:4s} {doc}")
        print()
        print("recovery protocols (MachineConfig.recovery):")
        from ..uarch.recovery import get_protocol, protocol_names
        for name in protocol_names():
            cls = get_protocol(name)
            flags = ",".join(flag for flag, on in
                             (("commit-wave", cls.requires_commit_wave),
                              ("epoch", cls.epoch_granular)) if on) or "-"
            doc = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:8s} [{flags:17s}] {doc}")
        return 0
    if wanted == ["all"]:
        wanted = list(EXPERIMENTS)

    for name in wanted:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'",
                  file=sys.stderr)
            return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    jobs = 1 if args.profile else (args.jobs or os.cpu_count() or 1)
    # Journaling rides along whenever a cache is attached: every plan
    # gets a manifest + completion journal, so an interrupted run
    # resumes with zero re-executed cells.
    runner = ParallelRunner(jobs=jobs, cache=cache,
                            journal=cache is not None)
    kernels = args.kernels.split(",") if args.kernels else None

    profiler = None
    if args.profile:
        import cProfile
        if args.jobs and args.jobs != 1:
            print(f"[--profile forces --jobs 1 (requested {args.jobs}): "
                  "cProfile only sees this process, so pooled workers "
                  "would profile as idle waits]")
        profiler = cProfile.Profile()
        profiler.enable()

    try:
        for name in wanted:
            start = time.time()
            print(run_experiment(name, not args.full, runner, kernels,
                                 args.corpus_sample))
            print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    finally:
        runner.close()
    print(f"[sweep: {runner.summary()}]")

    if profiler is not None:
        import pstats
        profiler.disable()
        print()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats(args.profile_sort)
        stats.print_stats(args.profile_top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
