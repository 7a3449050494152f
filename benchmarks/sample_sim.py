"""Stack-sampling profile of the simulator or of a corpus fill's chunks.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/sample_sim.py \\
        [--kernels vecsum,queue] [--points dsre,storeset]
    PYTHONPATH=src python benchmarks/sample_sim.py --corpus 200 --seed 233

The first form runs every chosen kernel at full scale at every chosen
machine point (default: all 14 kernels x E1's five points) through
``run_point``, one cell after another in this process, and samples
inside ``Processor.run``.  The second builds the first ``--corpus``
programs of the benchmark's cold corpus fill for ``--seed``
(``perfbench``'s ``corpus_fill_cold``: the fast sample with generator
seeds ``seed * 200 + i``, at E10's seven points), ships each program's
chunk as the runner does (pruned and pickled), and runs the chunk
bodies through ``run_cell_chunk`` one after another, as a pool worker
runs them, sampling inside ``run_cell_chunk``: the worker's whole
view, its per-program and per-cell setup as well as the simulation.

A ``SIGPROF`` interval timer (``signal.setitimer(ITIMER_PROF)``, every
0.5 ms of CPU time) records the Python stack at each tick.  The report
gives, for samples taken inside the root (``Processor.run`` or
``run_cell_chunk``):

* the inclusive share of each call path below the root, down to a
  fixed depth (a sample counts for every prefix of its path);
* each module's inclusive share: the samples with at least one frame of
  that module below the root (everything below a ``repro.uarch.lsq``
  frame, for example);
* with ``--corpus``, each function's inclusive share the same way
  (``Frame.__init__`` wherever a map builds a frame, for example).

Unlike cProfile, sampling adds no cost per call, so many small calls
are not overstated (docs/PERFORMANCE.md §8).  Standard library only.
The aggregation, :func:`aggregate`, is a pure function of the recorded
stacks.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: Sampling interval, seconds of process CPU time.
INTERVAL_S = 0.0005
#: Frames below ``Processor.run`` that a reported call path keeps.
DEPTH = 3
#: Call paths below this inclusive share are not printed.
MIN_SHARE = 0.005
#: The frame every reported path starts below.
ROOT = "repro.uarch.processor:Processor.run"
#: The root with ``--corpus``: a pool worker's chunk body.
CHUNK_ROOT = "repro.harness.pool:run_cell_chunk"
#: Programs per cold corpus fill: fill seed ``s`` builds generator seeds
#: ``s * FILL_PROGRAMS`` onwards (perfbench's ``CORPUS_PROGRAMS``).
FILL_PROGRAMS = 200

Frame = Tuple[str, str]          # (module, qualified function name)


def label(frame: Frame) -> str:
    return f"{frame[0]}:{frame[1]}"


def module(frame: Frame) -> str:
    return frame[0]


def aggregate(stacks: Iterable[Sequence[Frame]], root: str = ROOT,
              depth: int = DEPTH, unit: Callable[[Frame], str] = module
              ) -> Tuple[int, Dict[Tuple[str, ...], int], Dict[str, int]]:
    """Count ``stacks`` (outermost frame first) below ``root``.

    Returns ``(samples, paths, units)``: the number of stacks holding
    ``root``; for every call path of up to ``depth`` frames below the
    innermost ``root`` frame, the samples whose path starts with it; and
    for every ``unit(frame)`` (the frame's module by default, its
    :func:`label` for functions), the samples with a frame of it below
    ``root``.  A sample taken in ``root`` itself counts toward
    ``samples`` only.
    """
    samples = 0
    paths: Counter = Counter()
    units: Counter = Counter()
    for stack in stacks:
        labels = [label(frame) for frame in stack]
        if root not in labels:
            continue
        start = len(labels) - labels[::-1].index(root)
        samples += 1
        below = labels[start:]
        for n in range(1, min(depth, len(below)) + 1):
            paths[tuple(below[:n])] += 1
        for name in {unit(frame) for frame in stack[start:]}:
            units[name] += 1
    return samples, dict(paths), dict(units)


def report(samples: int, paths: Dict[Tuple[str, ...], int],
           modules: Dict[str, int], min_share: float = MIN_SHARE,
           root: str = ROOT, functions: Optional[Dict[str, int]] = None,
           ) -> List[str]:
    """Report lines: paths as an indented tree, children by share, then
    modules by share, then (when given) functions by share down to
    ``min_share``."""
    name = root.split(":")[-1]
    if not samples:
        return [f"no samples inside {name}"]
    lines = [f"{samples} samples inside {name} (timer every "
             f"{INTERVAL_S * 1e3:g} ms of CPU; the kernel may deliver "
             f"fewer ticks)", "",
             f"inclusive share of call paths below {name} "
             f"(depth {DEPTH}, >= {min_share:.1%}):"]

    def walk(prefix: Tuple[str, ...]) -> None:
        children = sorted(
            (p for p in paths if len(p) == len(prefix) + 1
             and p[:-1] == prefix),
            key=lambda p: (-paths[p], p))
        for path in children:
            share = paths[path] / samples
            if share < min_share:
                continue
            lines.append(f"{share:7.1%}  {'  ' * len(prefix)}{path[-1]}")
            walk(path)

    walk(())
    lines += ["", f"inclusive share of modules below {name}:"]
    for unit, count in sorted(modules.items(),
                              key=lambda item: (-item[1], item[0])):
        lines.append(f"{count / samples:7.1%}  {unit}")
    if functions is not None:
        lines += ["", f"inclusive share of functions below {name} "
                      f"(>= {min_share:.1%}):"]
        for unit, count in sorted(functions.items(),
                                  key=lambda item: (-item[1], item[0])):
            if count / samples >= min_share:
                lines.append(f"{count / samples:7.1%}  {unit}")
    return lines


def _frames(frame) -> Tuple[Frame, ...]:
    out = []
    while frame is not None:
        code = frame.f_code
        out.append((frame.f_globals.get("__name__", "?"),
                    getattr(code, "co_qualname", code.co_name)))
        frame = frame.f_back
    out.reverse()
    return tuple(out)


def _sample(work: Callable[[], None]) -> List[Tuple[Frame, ...]]:
    """Run ``work`` under the sampling timer; return the stacks."""
    stacks: List[Tuple[Frame, ...]] = []

    def on_tick(signum, frame):
        stacks.append(_frames(frame))

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        work()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return stacks


def sample_grid(kernels: Sequence[str], points: Sequence[str]
                ) -> List[Tuple[Frame, ...]]:
    """Run the grid under the sampling timer; return the stacks."""
    from repro.harness.runner import run_point
    from repro.workloads import KERNELS

    instances = [KERNELS[name].build_default() for name in kernels]

    def work() -> None:
        for instance in instances:
            for point in points:
                run_point(instance, point)

    return _sample(work)


def sample_fill(count: int, seed: int) -> List[Tuple[Frame, ...]]:
    """Run the chunk bodies of the first ``count`` programs of the cold
    corpus fill for ``seed`` under the sampling timer, one after another
    in this process; return the stacks.

    Chunks are grouped, pruned and pickled as ``ParallelRunner`` ships
    them to its pool, so the bodies start from what a worker receives:
    programs without their process-local caches, cells without configs,
    and an empty golden memo; each chunk is unpickled when its turn
    comes.  The plan is frozen out of the collector's reach first, as a
    pool worker freezes what it inherits at fork.
    """
    import dataclasses
    import gc
    import pickle

    from repro.harness.experiments import E10_POINTS
    from repro.harness.parallel import ParallelRunner
    from repro.harness.pool import (identity_digests, reset_golden_memo,
                                    run_cell_chunk)
    from repro.harness.sweep import SweepPlan
    from repro.workloads.corpus import build_corpus, sample_corpus

    plan = SweepPlan()
    for params in sample_corpus(count, fast=True):
        params = dataclasses.replace(
            params, seed=seed * FILL_PROGRAMS + params.seed)
        plan.add_points(build_corpus(params), E10_POINTS)
    cells = list(plan)
    groups: Dict[str, list] = {}
    shared: dict = {}
    for index, (cell, digest) in enumerate(
            zip(cells, identity_digests(cells))):
        groups.setdefault(digest, []).append(
            (index, ParallelRunner._pruned(cell, shared)))
    blobs = [pickle.dumps(chunk) for chunk in groups.values()]
    gc.freeze()
    reset_golden_memo()

    def work() -> None:
        # One chunk in memory at a time, as a worker receives them.
        for blob in blobs:
            run_cell_chunk(pickle.loads(blob))

    return _sample(work)


def main(argv=None) -> int:
    from repro.harness.experiments import POINT_ORDER
    from repro.harness.runner import STANDARD_POINTS
    from repro.workloads import KERNELS

    parser = argparse.ArgumentParser(
        description="Stack-sampling profile of the serial E1 grid, or of "
        "a cold corpus fill's chunk bodies.")
    parser.add_argument("--kernels", help="comma-separated kernel names "
                        "(default: all)")
    parser.add_argument("--points", help="comma-separated machine points "
                        "(default: E1's five)")
    parser.add_argument("--corpus", type=int, metavar="N",
                        help="sample the chunk bodies of the first N "
                        "programs of a cold corpus fill instead")
    parser.add_argument("--seed", type=int, default=233,
                        help="the fill's seed, as perfbench's --seed "
                        "(default: 233)")
    args = parser.parse_args(argv)
    if args.corpus is not None:
        if args.kernels or args.points:
            parser.error("--corpus takes no --kernels or --points")
        if not 1 <= args.corpus <= FILL_PROGRAMS:
            parser.error(f"--corpus must be in [1, {FILL_PROGRAMS}]")
        stacks = sample_fill(args.corpus, args.seed)
        samples, paths, modules = aggregate(stacks, CHUNK_ROOT)
        _, _, functions = aggregate(stacks, CHUNK_ROOT, unit=label)
        print("\n".join(report(samples, paths, modules, root=CHUNK_ROOT,
                                functions=functions)))
        return 0
    kernels = args.kernels.split(",") if args.kernels else list(KERNELS)
    points = args.points.split(",") if args.points else list(POINT_ORDER)
    unknown = ([k for k in kernels if k not in KERNELS]
               + [p for p in points if p not in STANDARD_POINTS])
    if unknown:
        parser.error(f"unknown kernel or point: {', '.join(unknown)}")
    samples, paths, modules = aggregate(sample_grid(kernels, points))
    print("\n".join(report(samples, paths, modules)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
