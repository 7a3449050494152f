"""Unit tests for the host speed probe and its interval speeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostspeed  # noqa: E402
from hostspeed import MIN_SAMPLES, NOMINAL_S, Speeds  # noqa: E402


def passes(times, pass_s):
    return [(float(t), pass_s) for t in times]


def test_speed_is_nominal_over_pass_time():
    speeds = Speeds({0: passes(range(10), NOMINAL_S * 2)})
    assert speeds.over(0.0, 9.0) == pytest.approx(0.5)
    assert speeds.median() == pytest.approx(0.5)


def test_over_averages_speeds_inside_the_interval():
    slow = passes(range(10), NOMINAL_S * 2)
    fast = passes(range(10, 20), NOMINAL_S / 2)
    speeds = Speeds({0: fast + slow})       # order does not matter
    assert speeds.over(0.0, 9.5) == pytest.approx(0.5)
    assert speeds.over(10.0, 19.0) == pytest.approx(2.0)
    assert speeds.over(5.0, 14.0) == pytest.approx((5 * 0.5 + 5 * 2) / 10)


def test_host_speed_is_the_mean_over_cores_unless_one_is_named():
    speeds = Speeds({0: passes(range(10), NOMINAL_S * 2),
                     1: passes(range(10), NOMINAL_S)})
    assert speeds.over(0.0, 9.0) == pytest.approx(0.75)
    assert speeds.over(0.0, 9.0, cpu=0) == pytest.approx(0.5)
    assert speeds.over(0.0, 9.0, cpu=1) == pytest.approx(1.0)
    assert len(speeds) == 20


def test_short_interval_borrows_nearest_passes():
    samples = [(float(t), NOMINAL_S * (1 if t < 50 else 4))
               for t in range(100)]
    speeds = Speeds({0: samples})
    # No pass starts inside (10.2, 10.4): the nearest ones are all fast.
    assert speeds.over(10.2, 10.4) == pytest.approx(1.0)
    assert speeds.over(80.1, 80.2) == pytest.approx(0.25)
    # Straddling the switch, the MIN_SAMPLES nearest passes mix.
    nearest = sorted(range(100), key=lambda t: abs(t - 49.55))
    want = sum(1.0 if t < 50 else 0.25
               for t in nearest[:MIN_SAMPLES]) / MIN_SAMPLES
    assert speeds.over(49.5, 49.6) == pytest.approx(want)
    assert 0.25 < want < 1.0


def test_over_refuses_no_samples():
    with pytest.raises(ValueError):
        Speeds({}).over(0.0, 1.0)


def test_probe_runs_one_pinned_sampler_per_core_and_stops():
    with hostspeed.SpeedProbe() as probe:
        hostspeed.probe_pass()
    assert sorted(probe.procs) == hostspeed.cpus()
    assert all(proc.returncode == 0 for proc in probe.procs.values())
    assert sorted(probe.speeds.speeds) == hostspeed.cpus()
    assert probe.speeds.median() > 0


def test_pin_then_unpin():
    core = hostspeed.cpus()[-1]
    child = subprocess.Popen([sys.executable, "-c", "input()"],
                             stdin=subprocess.PIPE,
                             preexec_fn=hostspeed.pin_to(core))
    try:
        assert os.sched_getaffinity(child.pid) == {core}
        hostspeed.unpin(child.pid)
        assert os.sched_getaffinity(child.pid) == set(hostspeed.cpus())
    finally:
        child.communicate(b"\n", timeout=30)
