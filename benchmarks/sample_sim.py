"""Stack-sampling profile of the simulator over the serial E1 grid.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/sample_sim.py \\
        [--kernels vecsum,queue] [--points dsre,storeset]

Runs every chosen kernel at full scale at every chosen machine point
(default: all 14 kernels x E1's five points) through ``run_point``, one
cell after another in this process.  A ``SIGPROF`` interval timer
(``signal.setitimer(ITIMER_PROF)``, every 0.5 ms of CPU time) records
the Python stack at each tick.  The report gives, for samples taken
inside ``Processor.run``:

* the inclusive share of each call path below ``Processor.run``, down
  to a fixed depth (a sample counts for every prefix of its path);
* each module's inclusive share: the samples with at least one frame of
  that module below ``Processor.run`` (everything below a
  ``repro.uarch.lsq`` frame, for example).

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
from typing import Dict, Iterable, List, Sequence, Tuple

#: Sampling interval, seconds of process CPU time.
INTERVAL_S = 0.0005
#: Frames below ``Processor.run`` that a reported call path keeps.
DEPTH = 3
#: Call paths below this inclusive share are not printed.
MIN_SHARE = 0.005
#: The frame every reported path starts below.
ROOT = "repro.uarch.processor:Processor.run"

Frame = Tuple[str, str]          # (module, qualified function name)


def label(frame: Frame) -> str:
    return f"{frame[0]}:{frame[1]}"


def aggregate(stacks: Iterable[Sequence[Frame]], root: str = ROOT,
              depth: int = DEPTH) -> Tuple[int, Dict[Tuple[str, ...], int],
                                          Dict[str, int]]:
    """Count ``stacks`` (outermost frame first) below ``root``.

    Returns ``(samples, paths, modules)``: the number of stacks holding
    ``root``; for every call path of up to ``depth`` frames below the
    innermost ``root`` frame, the samples whose path starts with it; and
    for every module, the samples with a frame of it below ``root``.  A
    sample taken in ``root`` itself counts toward ``samples`` only.
    """
    samples = 0
    paths: Counter = Counter()
    modules: Counter = Counter()
    for stack in stacks:
        labels = [label(frame) for frame in stack]
        if root not in labels:
            continue
        start = len(labels) - labels[::-1].index(root)
        samples += 1
        below = labels[start:]
        for n in range(1, min(depth, len(below)) + 1):
            paths[tuple(below[:n])] += 1
        for module in {frame[0] for frame in stack[start:]}:
            modules[module] += 1
    return samples, dict(paths), dict(modules)


def report(samples: int, paths: Dict[Tuple[str, ...], int],
           modules: Dict[str, int], min_share: float = MIN_SHARE
           ) -> List[str]:
    """Report lines: paths as an indented tree, children by share, then
    modules by share."""
    if not samples:
        return ["no samples inside Processor.run"]
    lines = [f"{samples} samples inside Processor.run (timer every "
             f"{INTERVAL_S * 1e3:g} ms of CPU; the kernel may deliver "
             f"fewer ticks)", "",
             f"inclusive share of call paths below Processor.run "
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
    lines += ["", "inclusive share of modules below Processor.run:"]
    for module, count in sorted(modules.items(),
                                key=lambda item: (-item[1], item[0])):
        lines.append(f"{count / samples:7.1%}  {module}")
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


def sample_grid(kernels: Sequence[str], points: Sequence[str]
                ) -> List[Tuple[Frame, ...]]:
    """Run the grid under the sampling timer; return the stacks."""
    from repro.harness.runner import run_point
    from repro.workloads import KERNELS

    instances = [KERNELS[name].build_default() for name in kernels]
    stacks: List[Tuple[Frame, ...]] = []

    def on_tick(signum, frame):
        stacks.append(_frames(frame))

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for instance in instances:
            for point in points:
                run_point(instance, point)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return stacks


def main(argv=None) -> int:
    from repro.harness.experiments import POINT_ORDER
    from repro.harness.runner import STANDARD_POINTS
    from repro.workloads import KERNELS

    parser = argparse.ArgumentParser(
        description="Stack-sampling profile of the serial E1 grid.")
    parser.add_argument("--kernels", help="comma-separated kernel names "
                        "(default: all)")
    parser.add_argument("--points", help="comma-separated machine points "
                        "(default: E1's five)")
    args = parser.parse_args(argv)
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
