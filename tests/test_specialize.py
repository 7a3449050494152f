"""Block-plan execution: pinned counters and the per-block plan cache.

The processor runs every block from its compiled activation plan
(repro.uarch.specialize).  ``tests/data/plan_counters.json`` pins, for
each case below, every counter a run produces — all SimStats fields,
network, LSQ, L1 and predictor stats, the halt flag — plus the digest of
the committed architectural state.  The values were recorded while the
simulator still carried a second, interpreted Token/Message execution
path that matched the plan path counter for counter, so they stand in
for that path as the oracle.  Each case also pins the run's
point-invariance certificate (``InvarianceCertificate.as_dict()``, which
every cell record carries and elision reads); those were recorded later,
from the same simulator, before its LSQ was rewritten for speed.

Coverage: three hand-written kernels and two generated corpus programs
at every registered machine point, seeded random programs, and random
programs in small windows (squash/refetch pressure).  To re-record after
an *intentional* timing change::

    GOLDEN_UPDATE=1 PYTHONPATH=src python -m pytest tests/test_specialize.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.arch import run_program
from repro.harness.cache import ResultCache
from repro.harness.parallel import ParallelRunner, arch_state_digest
from repro.harness.runner import STANDARD_POINTS, run_point
from repro.harness.sweep import SweepPlan
from repro.isa import Opcode
from repro.uarch.config import default_config
from repro.uarch.specialize import (PLAN_CACHE_CAP, BlockPlan, compile_plan,
                                    machine_point_key, plan_for)
from repro.workloads import KERNELS
from repro.workloads.corpus import build_corpus, sample_corpus

from .test_differential import instance_from_seed

ALL_POINTS = sorted(STANDARD_POINTS)

FIXTURE = Path(__file__).parent / "data" / "plan_counters.json"

#: Explicit (seed, point) random programs: every machine point at least
#: once, seeds spread over the generator's range.
RANDOM_CASES = ((0, "aggressive"), (1, "conservative"), (17, "dsre"),
                (257, "hybrid"), (4093, "oracle"), (31337, "storeset"),
                (65521, "txwave"), (99991, "dsre"))

#: Explicit (seed, max_frames) random programs at ``dsre``: tiny windows
#: force frame recycling and squash/refetch through the plan path.
WINDOW_CASES = ((3, 1), (42, 2), (777, 8), (50021, 1))


def _kernel(name):
    return lambda: KERNELS[name].build_test()


def _corpus(params):
    return lambda: build_corpus(params)


def _random(seed):
    return lambda: instance_from_seed(seed)[0]


def _cases():
    """case id -> (instance factory, machine point, config overrides)."""
    cases = {}
    for kernel in ("vecsum", "listsum", "stencil"):
        for point in ALL_POINTS:
            cases[f"{kernel}@{point}"] = (_kernel(kernel), point, {})
    for params in sample_corpus(2, seed=0xBE):
        for point in ALL_POINTS:
            cases[f"corpus({params.shape},s{params.seed})@{point}"] = (
                _corpus(params), point, {})
    for seed, point in RANDOM_CASES:
        cases[f"rand{seed}@{point}"] = (_random(seed), point, {})
    for seed, frames in WINDOW_CASES:
        cases[f"rand{seed}/frames={frames}@dsre"] = (
            _random(seed), "dsre", {"max_frames": frames})
    return cases


CASES = _cases()


def _fields(counters):
    return {name: getattr(counters, name)
            for name in counters.__dataclass_fields__}


def _observe(result):
    """Every counter of one run, JSON-shaped."""
    return {
        "stats": _fields(result.stats),
        "network": _fields(result.network_stats),
        "lsq": _fields(result.lsq_stats),
        "l1": _fields(result.l1_stats),
        "predictor": _fields(result.predictor_stats),
        "certificate": result.certificate.as_dict(),
        "arch_digest": arch_state_digest(result.arch),
        "halted": result.halted,
    }


def _load_fixture():
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def _write_fixture(recorded):
    # One case per line: the file stays reviewable as a diff.
    lines = [f"{json.dumps(case)}: "
             f"{json.dumps(recorded[case], sort_keys=True)}"
             for case in sorted(recorded)]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def recorded():
    return _load_fixture()


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_match_fixture(case, recorded):
    factory, point, overrides = CASES[case]
    instance = factory()
    result = run_point(instance, point, **overrides)
    observed = _observe(result)
    if os.environ.get("GOLDEN_UPDATE") == "1":
        fixture = _load_fixture()
        fixture[case] = observed
        _write_fixture(fixture)
        pytest.skip(f"counters for {case} re-recorded")
    assert case in recorded, \
        f"{case} missing from {FIXTURE.name}; record with GOLDEN_UPDATE=1"
    want = recorded[case]
    assert set(observed) == set(want), case
    for section in want:
        assert observed[section] == want[section], f"{case}: {section}"
    golden_state = run_program(instance.program, instance.initial_regs)[1]
    assert observed["arch_digest"] == arch_state_digest(golden_state)
    # Every mapped frame activates a plan; each block resolves once.
    assert result.stats.specialize_hits == result.stats.frames_mapped
    assert 0 < result.stats.specialize_misses \
        <= len(instance.program.blocks)


class TestPlanCache:
    def _block(self):
        instance = KERNELS["vecsum"].build_test()
        return instance, next(iter(instance.program.blocks.values()))

    def test_lru_eviction_then_reuse(self):
        instance, block = self._block()
        block._plan_cache = None                 # start cold
        configs = [default_config(hop_latency=n + 1)
                   for n in range(PLAN_CACHE_CAP + 3)]
        keys = [machine_point_key(c) for c in configs]
        assert len(set(keys)) == len(keys)
        first_plan, compiled = plan_for(block, keys[0], configs[0])
        assert compiled and first_plan is not None
        for key, config in zip(keys[1:], configs[1:]):
            plan, compiled = plan_for(block, key, config)
            assert compiled and plan is not None
        assert len(block._plan_cache) == PLAN_CACHE_CAP
        assert keys[0] not in block._plan_cache      # LRU-evicted
        # Re-requesting the evicted point recompiles an equivalent plan.
        replan, compiled = plan_for(block, keys[0], configs[0])
        assert compiled
        assert replan.sends == first_plan.sends
        assert replan.reads == first_plan.reads
        assert replan.latencies == first_plan.latencies
        # And a hit does not recompile.
        again, compiled = plan_for(block, keys[0], configs[0])
        assert not compiled and again is replan

    def test_eviction_is_invisible_end_to_end(self):
        # Thrash a program's plan caches past the cap, then run: every
        # counter must match a run from cold caches.
        instance = KERNELS["listsum"].build_test()
        for block in instance.program.blocks.values():
            block._plan_cache = None
        cold = _observe(run_point(instance, "dsre"))
        for block in instance.program.blocks.values():
            for n in range(PLAN_CACHE_CAP + 3):
                config = default_config(hop_latency=n + 1)
                plan_for(block, machine_point_key(config), config)
        assert _observe(run_point(instance, "dsre")) == cold

    @pytest.mark.parametrize("geometry", [(4, 4), (2, 2), (8, 4)])
    def test_every_validated_block_compiles(self, geometry):
        # Block validation rejects the only shapes a plan cannot route
        # (unmapped or out-of-range instruction targets), so compilation
        # of a validated program always yields a plan.
        config = default_config(grid_width=geometry[0],
                                grid_height=geometry[1])
        for spec in KERNELS.values():
            program = spec.build_test().program
            program.validate()
            for block in program.blocks.values():
                plan = compile_plan(block, config)
                assert isinstance(plan, BlockPlan)
                assert len(plan.sends) == len(block.instructions)
                assert len(plan.reads) == len(block.reads)


class TestEditedBlock:
    """A plan lives only in its block's LRU, so a block edited in place
    and invalidated compiles afresh, whatever the cache root holds."""

    @staticmethod
    def _vecsum():
        instance = KERNELS["vecsum"].build_test()
        # The edit below changes the result, so the expectations go.
        instance.expected_regs.clear()
        instance.expected_mem_words.clear()
        return instance

    @staticmethod
    def _first_add_to_mul(instance):
        for block in instance.program.blocks.values():
            for inst in block.instructions:
                if inst.opcode is Opcode.ADD:
                    inst.opcode = Opcode.MUL
                    block.invalidate_caches()
                    return
        raise AssertionError("vecsum has no ADD")

    @staticmethod
    def _dsre_cycles(runner, instance):
        plan = SweepPlan()
        plan.add(instance, "dsre")
        (result,) = runner.run_plan(plan)
        assert not result.from_cache
        return result.stats.cycles

    def test_edited_block_recompiles_after_a_cached_run(self, tmp_path):
        instance = self._vecsum()
        with ParallelRunner(jobs=1,
                            cache=ResultCache(str(tmp_path))) as runner:
            before = self._dsre_cycles(runner, instance)
            self._first_add_to_mul(instance)
            after = self._dsre_cycles(runner, instance)
        # A separately built copy: no plan of the unedited block can
        # reach it through any cache.
        fresh = self._vecsum()
        self._first_add_to_mul(fresh)
        with ParallelRunner(jobs=1) as runner:
            assert after == self._dsre_cycles(runner, fresh)
        assert after != before
