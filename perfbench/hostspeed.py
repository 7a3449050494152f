"""Host speed probe: rescales the benchmark's timings to a nominal host.

The benchmark host is a share of a machine whose other tenants change
how fast each of its cores runs, from one second to the next, by up to
about 2x, and not by the same amount on every core.  Reported as
measured, a run's timings mostly tell how busy the neighbours were.  So
one probe process per core, pinned to it, runs beside every run: every
:data:`PERIOD_S` it times one pass of a fixed pure-Python loop by its
own CPU time (``time.thread_time``, so waiting for the core does not
count) and records when it did so.  A pass takes about
:data:`NOMINAL_S` on this host when it is quiet and longer when it is
crowded.

The speed of a core over an interval is the mean of ``NOMINAL_S /
pass`` over its probe passes inside the interval, and the host speed is
the mean over the cores.  A timing ``t`` taken over the interval is
reported as ``t * speed``: the seconds it would have taken on a host
where one pass takes exactly :data:`NOMINAL_S`.  Work pinned to one core
is scaled by that core's speed alone.  The probes cost about 3 % of
each core, the same on every commit, and share no code with the program
under test.

Run as a script with a core number it is one probe: it pins itself,
samples until its standard input closes, then prints its samples as one
JSON list of ``[start, seconds]`` pairs.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: CPU seconds one probe pass is scaled to.
NOMINAL_S = 0.001

#: Seconds between the end of one probe pass and the start of the next.
PERIOD_S = 0.03

#: An interval with fewer passes of a core inside it borrows that
#: core's passes nearest its middle.
MIN_SAMPLES = 5

#: Loop trips of one pass (about 1 ms of CPU on the benchmark host).
PASS_TRIPS = 8000


def probe_pass(trips: int = PASS_TRIPS) -> int:
    """The fixed work one probe pass times."""
    acc = 0
    table = {}
    for i in range(trips):
        table[i & 63] = acc
        acc += i * 3 % 7
    return acc


def cpus() -> List[int]:
    """The cores this process may run on."""
    return sorted(os.sched_getaffinity(0))


def pin_to(cpu: int):
    """A ``preexec_fn`` that starts a child pinned to core ``cpu``."""
    return lambda: os.sched_setaffinity(0, {cpu})


def unpin(pid: int) -> None:
    """Let every thread of process ``pid`` run on every core again."""
    every = set(cpus())
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), every)
        except ProcessLookupError:
            pass                        # the thread has ended


class Speeds:
    """Probe samples per core and the host speed over any interval."""

    def __init__(self, samples: Dict[int, Sequence[Tuple[float, float]]]):
        self.times: Dict[int, List[float]] = {}
        self.speeds: Dict[int, List[float]] = {}
        for cpu, pairs in samples.items():
            ordered = sorted((float(t), float(d)) for t, d in pairs if d > 0)
            if ordered:
                self.times[cpu] = [t for t, _ in ordered]
                self.speeds[cpu] = [NOMINAL_S / d for _, d in ordered]

    def __len__(self) -> int:
        return sum(map(len, self.speeds.values()))

    def _core_over(self, cpu: int, start: float, end: float) -> float:
        times, speeds = self.times[cpu], self.speeds[cpu]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi - lo >= MIN_SAMPLES:
            return statistics.fmean(speeds[lo:hi])
        middle = (start + end) / 2.0
        nearest = sorted(range(len(times)),
                         key=lambda i: abs(times[i] - middle))
        return statistics.fmean(speeds[i] for i in nearest[:MIN_SAMPLES])

    def over(self, start: float, end: float,
             cpu: Optional[int] = None) -> float:
        """Speed over ``[start, end]``: of core ``cpu`` when given, else
        the mean over the cores.  A core's speed is the mean over its
        passes that started in the interval; with fewer than
        :data:`MIN_SAMPLES` there, over the ones nearest its middle."""
        if not self.speeds:
            raise ValueError("no probe samples")
        if cpu is not None:
            return self._core_over(cpu, start, end)
        return statistics.fmean(self._core_over(c, start, end)
                                for c in self.speeds)

    def median(self) -> float:
        return statistics.median(s for v in self.speeds.values()
                                 for s in v)


class SpeedProbe:
    """Context manager running one probe per core; ``speeds`` holds
    their samples once the block has exited.  Every probe is stopped
    and waited for on every way out of the block."""

    def __init__(self):
        self.procs: Dict[int, subprocess.Popen] = {}
        self.speeds: Optional[Speeds] = None

    def __enter__(self) -> "SpeedProbe":
        try:
            for cpu in cpus():
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.speeds = Speeds(self._stop())

    def _stop(self) -> Dict[int, list]:
        samples, problems = {}, []
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                problems.append(f"probe on cpu {cpu} did not stop")
                continue
            if proc.returncode != 0:
                problems.append(f"probe on cpu {cpu} exited with "
                                f"{proc.returncode}")
                continue
            samples[cpu] = json.loads(out)
        if problems:
            raise RuntimeError("; ".join(problems))
        return samples


def sample_until_stdin_closes() -> List[Tuple[float, float]]:
    samples = []
    while True:
        start = time.perf_counter()
        cpu = time.thread_time()
        probe_pass()
        samples.append((start, time.thread_time() - cpu))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.buffer.read1(4096):
            return samples


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    sys.stdout.write(json.dumps(sample_until_stdin_closes()))
