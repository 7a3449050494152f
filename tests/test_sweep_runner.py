"""Tests for the batch execution layer: sweep plans, the parallel runner,
the content-addressed result cache, and the always-on differential check."""

import json
import re

import pytest

from repro.arch.interp import run_program
from repro.arch.memory import PAGE_SHIFT
from repro.errors import GoldenMismatchError
from repro.harness import (ParallelRunner, ResultCache, SweepPlan, cache_key,
                           execute_cell)
from repro.harness import parallel as parallel_mod
from repro.harness.cache import SCHEMA_VERSION
from repro.harness.experiments import E10_POINTS
from repro.harness.pool import run_cell_chunk
from repro.harness.runner import run_point
from repro.harness.sweep import SweepCell
from repro.uarch.config import default_config
from repro.workloads import KERNELS
from repro.workloads.common import KernelInstance


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def small():
    return KERNELS["queue"].build(12)


def stats_of(results):
    return [r.stats.as_dict() for r in results]


def two_point_plan(plan=None):
    plan = plan or SweepPlan()
    inst = small()
    plan.add(inst, "dsre")
    plan.add(inst, "storeset")
    return plan


class TestCacheHitMiss:
    def test_cold_then_warm(self, cache):
        runner = ParallelRunner(jobs=1, cache=cache)
        first = runner.run_plan(two_point_plan())
        assert all(not r.from_cache for r in first)
        assert cache.session.stored == 2

        warm = ParallelRunner(jobs=1, cache=cache)
        second = warm.run_plan(two_point_plan())
        assert all(r.from_cache for r in second)
        assert warm.totals["cells_executed"] == 0
        assert stats_of(first) == stats_of(second)

    def test_cache_disabled_always_executes(self):
        runner = ParallelRunner(jobs=1, cache=None)
        results = runner.run_plan(two_point_plan())
        assert all(not r.from_cache for r in results)

    def test_config_change_invalidates(self, cache):
        runner = ParallelRunner(jobs=1, cache=cache)
        runner.run_point(small(), "dsre", max_frames=2)
        # Same kernel + point, different machine: must miss.
        again = ParallelRunner(jobs=1, cache=cache)
        result = again.run_point(small(), "dsre", max_frames=4)
        assert not result.from_cache
        # And the original cell still hits.
        third = ParallelRunner(jobs=1, cache=cache)
        assert third.run_point(small(), "dsre", max_frames=2).from_cache

    def test_program_change_invalidates(self, cache):
        ParallelRunner(jobs=1, cache=cache).run_point(
            KERNELS["queue"].build(12), "dsre")
        result = ParallelRunner(jobs=1, cache=cache).run_point(
            KERNELS["queue"].build(16), "dsre")
        assert not result.from_cache

    def test_key_is_stable_across_processes(self):
        # The key must not depend on dict order, object ids, or PYTHONHASHSEED.
        inst = small()
        key = cache_key(inst.identity_digest(), default_config())
        assert key == cache_key(small().identity_digest(), default_config())
        assert len(key) == 64


class TestCorruptEntries:
    def _single_entry(self, cache):
        ParallelRunner(jobs=1, cache=cache).run_point(small(), "dsre")
        paths = cache.entries()
        assert len(paths) == 1
        return paths[0]

    @pytest.mark.parametrize("garbage", [
        b"", b"not json{{{", b'"a json string, not an object"',
        json.dumps({"schema": SCHEMA_VERSION}).encode(),
        json.dumps({"schema": 999, "key": "x", "kernel": "q", "point": "p",
                    "config": {}, "result": {}, "arch_digest": ""}).encode(),
    ])
    def test_corrupt_entry_recovers(self, cache, garbage):
        path = self._single_entry(cache)
        with open(path, "wb") as fh:
            fh.write(garbage)
        runner = ParallelRunner(jobs=1, cache=cache)
        result = runner.run_point(small(), "dsre")
        assert not result.from_cache          # treated as a miss...
        assert cache.session.corrupt == 1     # ...and reported
        # ...and the entry is rewritten valid: a fresh runner hits.
        assert ParallelRunner(jobs=1, cache=cache).run_point(
            small(), "dsre").from_cache

    def test_invalid_config_in_record_rejected(self, cache):
        path = self._single_entry(cache)
        with open(path) as fh:
            record = json.load(fh)
        record["config"]["recovery"] = "undo"
        with open(path, "w") as fh:
            json.dump(record, fh)
        result = ParallelRunner(jobs=1, cache=cache).run_point(
            small(), "dsre")
        assert not result.from_cache
        assert cache.session.corrupt == 1

    def test_key_mismatch_rejected(self, cache):
        path = self._single_entry(cache)
        with open(path) as fh:
            record = json.load(fh)
        record["key"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(record, fh)
        result = ParallelRunner(jobs=1, cache=cache).run_point(
            small(), "dsre")
        assert not result.from_cache
        assert cache.session.corrupt == 1

    def test_stats_and_clear(self, cache):
        self._single_entry(cache)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["per_kernel"] == {"queue": 1}
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestParallelEqualsSerial:
    def test_results_identical(self):
        plan_a, plan_b = two_point_plan(), two_point_plan()
        serial = ParallelRunner(jobs=1).run_plan(plan_a)
        parallel = ParallelRunner(jobs=2).run_plan(plan_b)
        assert stats_of(serial) == stats_of(parallel)
        assert [r.arch_digest for r in serial] == \
            [r.arch_digest for r in parallel]

    def test_parallel_fills_cache_identically(self, cache, tmp_path):
        other = ResultCache(str(tmp_path / "other"))
        ParallelRunner(jobs=1, cache=cache).run_plan(two_point_plan())
        ParallelRunner(jobs=2, cache=other).run_plan(two_point_plan())
        def load(c):
            records = [json.load(open(p)) for p in c.entries()]
            return sorted(records, key=lambda r: r["key"])
        assert load(cache) == load(other)


class TestDeterminism:
    def test_jobs1_repeatable(self):
        a = ParallelRunner(jobs=1).run_plan(two_point_plan())
        b = ParallelRunner(jobs=1).run_plan(two_point_plan())
        assert stats_of(a) == stats_of(b)
        assert [r.label for r in a] == [r.label for r in b]

    def test_merged_stats_accumulate(self):
        runner = ParallelRunner(jobs=1)
        results = runner.run_plan(two_point_plan())
        assert runner.merged_stats.cycles == \
            sum(r.stats.cycles for r in results)
        assert runner.totals["cells_executed"] == 2

    def test_fill_reports_the_cycles_a_render_reports(self, cache):
        # fill_plan and run_plan summarize the same cells the same way,
        # whether they simulate them or find them cached.
        def plan():
            plan = SweepPlan()
            for kernel in ("vecsum", "queue"):
                instance = KERNELS[kernel].build_test()
                for point in ("conservative", "dsre", "oracle"):
                    plan.add(instance, point)
            return plan

        def cycles(summary):
            return next(part for part in summary.split(", ")
                        if part.endswith(" cycles simulated"))

        with ParallelRunner(jobs=1, cache=cache) as filler:
            filler.fill_plan(plan())
        with ParallelRunner(jobs=1, cache=cache) as refill:
            refill.fill_plan(plan())          # every cell cached
        with ParallelRunner(jobs=1, cache=cache) as render:
            results = render.run_plan(plan())
        total = sum(r.stats.cycles for r in results)
        assert total > 0
        assert filler.merged_stats.cycles == total
        assert cycles(filler.summary()) == cycles(render.summary()) \
            == cycles(refill.summary()) == f"{total} cycles simulated"


class TestDifferentialCheck:
    def test_corrupted_timing_result_rejected(self, monkeypatch):
        """A timing result whose architectural state diverges from the
        golden interpreter must be rejected with a clear error — and never
        admitted to the cache."""
        real = parallel_mod._simulate

        def corrupted(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.set_reg(2, result.arch.get_reg(2) ^ 0xDEAD)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupted)
        with pytest.raises(GoldenMismatchError,
                           match="differential check failed.*R2"):
            execute_cell(SweepCell(small(), "dsre"))

    def test_corrupted_memory_rejected(self, monkeypatch):
        real = parallel_mod._simulate

        def corrupted(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.memory.write_word(0x9_0000, 0x1234)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupted)
        with pytest.raises(GoldenMismatchError, match="mem\\[0x90000\\]"):
            execute_cell(SweepCell(small(), "dsre"))

    def test_nothing_cached_on_failure(self, cache, monkeypatch):
        real = parallel_mod._simulate

        def corrupted(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.set_reg(1, 0xBAD)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupted)
        runner = ParallelRunner(jobs=1, cache=cache)
        with pytest.raises(GoldenMismatchError):
            runner.run_point(small(), "dsre")
        assert cache.entries() == []

    def test_kernel_expectation_still_checked(self):
        inst = small()
        inst.expected_regs[2] = 999999
        with pytest.raises(GoldenMismatchError, match="wrong final state"):
            execute_cell(SweepCell(inst, "dsre"))

    def test_extra_zero_page_passes(self, monkeypatch):
        """An all-zero page counts as absent: the padded state passes
        the page-level check and digests like the golden state."""
        inst = small()
        plain = execute_cell(SweepCell(inst, "dsre"))
        real = parallel_mod._simulate
        pad = 0x7_0000_0000

        def padded(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.memory.write_word(pad, 0)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", padded)
        record = execute_cell(SweepCell(inst, "dsre"))
        _, golden_state = run_program(inst.program, inst.initial_regs)
        page = pad >> PAGE_SHIFT
        assert page not in golden_state.memory.touched_pages()
        assert record == plain
        assert record["arch_digest"] == \
            parallel_mod.arch_state_digest(golden_state)

    def test_registers_listed_before_memory(self, monkeypatch):
        real = parallel_mod._simulate

        def corrupted(instance, config, golden, arena=None):
            result = real(instance, config, golden, arena)
            result.arch.set_reg(2, result.arch.get_reg(2) ^ 0xDEAD)
            result.arch.memory.write_word(0x9_0000, 0x1234)
            return result

        monkeypatch.setattr(parallel_mod, "_simulate", corrupted)
        with pytest.raises(GoldenMismatchError) as err:
            execute_cell(SweepCell(small(), "dsre"))
        assert re.search(r"diverges from the golden interpreter: "
                         r"R2 = \d+, golden \d+; "
                         r"mem\[0x90000\] = 4660, golden 0$",
                         str(err.value))


class TestIdentityDigestCount:
    """The runner and a worker chunk derive one identity digest per
    distinct instance object, not one per cell."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = KernelInstance.identity_digest

        def counting(instance):
            seen.append(instance)
            return real(instance)

        monkeypatch.setattr(KernelInstance, "identity_digest", counting)
        return seen

    @staticmethod
    def three_by_seven():
        plan = SweepPlan()
        for name, size in (("queue", 12), ("vecsum", 16),
                           ("histogram", 16)):
            plan.add_points(KERNELS[name].build(size), E10_POINTS)
        return plan

    def test_run_plan(self, cache, calls):
        plan = self.three_by_seven()
        ParallelRunner(jobs=1, cache=cache).run_plan(plan)
        assert len(plan.cells) == 21
        assert len(calls) == 3

    def test_fill_plan(self, cache, calls):
        plan = self.three_by_seven()
        summary = ParallelRunner(jobs=1, cache=cache).fill_plan(plan)
        assert summary["cells"] == 21
        assert len(calls) == 3

    def test_chunk(self, calls):
        plan = SweepPlan()
        plan.add_points(small(), E10_POINTS)
        payload = run_cell_chunk(list(enumerate(plan.cells)))
        assert len(payload["records"]) == 7
        assert len(calls) == 1


class TestGoldenMemo:
    def test_memo_keyed_on_program_identity(self):
        from repro.harness import golden_of
        inst = small()
        trace = golden_of(inst)
        assert golden_of(inst) is trace            # hit
        # Mutating the inputs must invalidate the memo, even though the
        # attribute survives (e.g. across pickling round-trips).
        inst.initial_regs[9] = 42
        assert golden_of(inst) is not trace

    def test_legacy_memo_format_ignored(self):
        from repro.harness import golden_of
        inst = small()
        inst._golden_cache = object()              # pre-refactor layout
        trace = golden_of(inst)
        assert trace.block_count > 0

    def test_memo_survives_pickle_and_revalidates(self):
        import pickle
        from repro.harness import golden_of
        inst = small()
        golden_of(inst)
        clone = pickle.loads(pickle.dumps(inst))
        assert golden_of(clone).block_count == golden_of(inst).block_count


class TestPicklingAfterUse:
    """A program simulated and golden-run in this process still travels
    to the worker pool: its blocks pickle without the derived caches
    that hold ALU callables (frame template, block plans, golden
    plan)."""

    @staticmethod
    def _plan(instance):
        plan = SweepPlan()
        for kernel in (instance, KERNELS["vecsum"].build_test()):
            for point in ("dsre", "storeset"):
                plan.add(kernel, point)
        return plan

    def test_pool_runs_a_program_used_in_process(self, monkeypatch):
        # Two schedulable cores, so the plan goes to the pool on any host.
        monkeypatch.setattr(parallel_mod, "_available_cores", lambda: 2)
        used = small()
        run_point(used, "dsre")
        run_program(used.program, used.initial_regs)
        with ParallelRunner(jobs=2, cache=None) as runner:
            after_use = runner.run_plan(self._plan(used))
            assert runner.pool is not None
        with ParallelRunner(jobs=2, cache=None) as runner:
            fresh = runner.run_plan(self._plan(small()))
        assert stats_of(after_use) == stats_of(fresh)
        assert [r.arch_digest for r in after_use] == \
            [r.arch_digest for r in fresh]

    def test_program_pickles_like_a_fresh_one(self):
        import pickle
        used = small()
        run_point(used, "dsre")
        run_program(used.program, used.initial_regs)
        assert pickle.dumps(used.program) == pickle.dumps(small().program)
        clone = pickle.loads(pickle.dumps(used.program))
        assert all(block._validated for block in clone.blocks.values())


class TestPlan:
    def test_add_validates_eagerly(self):
        plan = SweepPlan()
        with pytest.raises(Exception):
            plan.add(small(), "dsre", max_frames=0)
        assert len(plan) == 0

    def test_explicit_policy_cells(self):
        plan = SweepPlan()
        plan.add(small(), None, dependence_policy="storeset",
                 recovery="dsre")
        cell = plan.cells[0]
        assert cell.config().dependence_policy == "storeset"
        assert cell.config().recovery == "dsre"
        assert "storeset/dsre" in cell.label

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)
