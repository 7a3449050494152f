"""Tests for the experiment harness (runners, experiments, CLI)."""

import pytest

from repro.harness import (EXPERIMENTS, POINT_ORDER, STANDARD_POINTS,
                           run_point, run_points, table_t1)
from repro.harness.cli import main as cli_main
from repro.harness.experiments import run_experiment
from repro.workloads import KERNELS


@pytest.fixture(scope="module")
def small_kernel():
    return KERNELS["queue"].build(16)


class TestRunner:
    def test_standard_points_complete(self):
        # POINT_ORDER stays the original five-point table order; additive
        # points (hybrid) are runnable by name but never reflow tables.
        assert set(POINT_ORDER) <= set(STANDARD_POINTS)
        assert POINT_ORDER == ["conservative", "aggressive", "storeset",
                               "dsre", "oracle"]
        assert STANDARD_POINTS["dsre"] == ("aggressive", "dsre")
        assert STANDARD_POINTS["storeset"] == ("storeset", "flush")
        assert STANDARD_POINTS["hybrid"] == ("aggressive", "hybrid")

    def test_run_point(self, small_kernel):
        result = run_point(small_kernel, "dsre")
        assert result.stats.committed_blocks > 0
        assert result.config.recovery == "dsre"

    def test_run_point_with_overrides(self, small_kernel):
        result = run_point(small_kernel, "dsre", max_frames=2)
        assert result.config.max_frames == 2

    def test_run_points_shares_golden(self, small_kernel):
        results = run_points(small_kernel, points=["dsre", "oracle"])
        assert set(results) == {"dsre", "oracle"}
        assert hasattr(small_kernel, "_golden_cache")

    def test_wrong_result_detected(self, small_kernel):
        # Corrupt the expectation: the runner must flag it.
        small = KERNELS["queue"].build(12)
        small.expected_regs[2] = 12345
        with pytest.raises(AssertionError, match="wrong final state"):
            run_point(small, "dsre")


class TestExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"t1", "t2", "e1", "e2", "e3", "e4",
                                    "e5", "e6", "e7", "e8", "e9", "e10"}

    def test_t1(self):
        table = table_t1()
        assert len(table.rows) >= 10

    def test_run_experiment_renders_t1(self):
        assert run_experiment("t1", True, None) == table_t1().render()

    def test_run_experiment_passes_only_listed_arguments(self, monkeypatch):
        calls = {}

        class Rendered:
            def render(self):
                return "table"

        def plain(fast, runner):
            calls["plain"] = {"fast": fast, "runner": runner}
            return Rendered()

        def full(fast, runner, kernels=None, sample=None):
            calls["full"] = {"fast": fast, "runner": runner,
                             "kernels": kernels, "sample": sample}
            return Rendered()

        monkeypatch.setitem(EXPERIMENTS, "plain", plain)
        monkeypatch.setitem(EXPERIMENTS, "full", full)
        runner = object()
        assert run_experiment("plain", False, runner, kernels=["queue"],
                              sample=3) == "table"
        assert calls["plain"] == {"fast": False, "runner": runner}
        run_experiment("full", True, runner, kernels=["queue"], sample=0)
        assert calls["full"] == {"fast": True, "runner": runner,
                                 "kernels": ["queue"], "sample": 0}
        run_experiment("full", True, runner)
        assert calls["full"]["kernels"] is None
        assert calls["full"]["sample"] is None

    def test_e1_on_subset(self):
        from repro.harness import e1_main
        table = e1_main(fast=True, kernels=["queue", "memaccum"])
        assert "geomean" in table.column("kernel")
        assert 0 < table.data["geomean"]["dsre"]

    def test_e2_on_subset(self):
        from repro.harness import e2_window
        table = e2_window(fast=True, frames=(1, 4),
                          kernels=("memaccum",))
        series = table.data["ipc"][("memaccum", "dsre")]
        assert len(series) == 2

    def test_e7_small(self):
        from repro.harness import e7_conflict_sweep
        table = e7_conflict_sweep(fast=True, rates=(0.0, 1.0))
        assert table.data["norm"]["oracle"] == [1.0, 1.0]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "t2" in out
        assert "recovery protocols" in out
        for name in ("dsre", "flush", "hybrid", "txwave"):
            assert name in out
        # Capability flags: dsre needs the commit wave, txwave is the
        # only epoch-granular protocol, flush has neither capability.
        assert "dsre     [commit-wave" in out
        assert "txwave   [epoch" in out
        assert "flush    [-" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["zzz"]) == 2

    def test_t1_runs(self, capsys):
        assert cli_main(["t1"]) == 0
        out = capsys.readouterr().out
        assert "Machine configuration" in out
        assert "regenerated" in out

    def test_e1_with_jobs_and_kernel_subset(self, capsys, tmp_path):
        assert cli_main(["e1", "--jobs", "1", "--kernels", "queue",
                         "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "queue" in out
        assert "geomean" in out
        assert "sweep:" in out

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert cli_main(["e1", "--jobs", "1", "--kernels", "queue",
                         "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries         5" in out
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 5" in capsys.readouterr().out

    def test_cache_usage_error(self, capsys):
        assert cli_main(["cache", "bogus"]) == 2

    def test_no_cache_flag(self, capsys, tmp_path):
        assert cli_main(["e1", "--jobs", "1", "--kernels", "queue",
                         "--no-cache",
                         "--cache-dir", str(tmp_path / "c")]) == 0
        assert not (tmp_path / "c").exists()
