"""Arena recycling conformance: recycled frames leak no state.

The processor recycles retired ``Frame`` objects (and their instruction
nodes) through per-block free lists.  Recycling must be perfectly
invisible: a simulation that reuses arenas must produce byte-identical
results — summary line, every counter, and the final architectural
state — to one that allocates everything fresh.
Checked here for every registered recovery protocol over seeded and
hypothesis-drawn random programs (the same generator as the protocol
conformance tests), plus direct unit tests of the reset/life-guard
machinery.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import run_program
from repro.core.node import NodeState
from repro.harness.parallel import arch_state_digest
from repro.harness.runner import golden_of
from repro.uarch.config import default_config
from repro.uarch.events import EventTrace
from repro.uarch.frame import Frame
from repro.uarch.processor import Processor
from repro.uarch.recovery import protocol_names
from repro.workloads.common import KernelInstance
from repro.workloads import KERNELS
from repro.workloads.randprog import generate

SEEDS = [0, 1, 2, 3, 5, 8]
PROTOCOLS = list(protocol_names())


def _instance(seed, n_blocks=4, ops_per_block=8):
    rp = generate(seed, n_blocks=n_blocks, ops_per_block=ops_per_block)
    _, state = run_program(rp.program)
    return KernelInstance(
        name=f"rand{seed}",
        program=rp.program,
        expected_regs={r: state.get_reg(r) for r in rp.check_regs},
        expected_mem_words=dict(state.memory.nonzero_words()))


def _run(instance, protocol, recycle, **overrides):
    config = default_config(dependence_policy="aggressive",
                            recovery=protocol, **overrides)
    processor = Processor(instance.program, config, instance.initial_regs,
                          golden=golden_of(instance),
                          recycle_frames=recycle)
    return processor, processor.run()


def _assert_identical(instance, protocol, **overrides):
    pa, ra = _run(instance, protocol, True, **overrides)
    pb, rb = _run(instance, protocol, False, **overrides)
    assert ra.summary() == rb.summary()
    assert ra.stats.as_dict() == rb.stats.as_dict()
    assert arch_state_digest(ra.arch) == arch_state_digest(rb.arch)
    # The fresh-allocation run must truly be one.
    assert pb.frames_recycled == 0
    return pa


class TestRecycledEqualsFresh:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_seeded_random_programs(self, seed, protocol):
        _assert_identical(_instance(seed), protocol)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tiny_window_recycles_hard(self, protocol):
        # max_frames=1 on a looping kernel: every mapped frame after the
        # first is a reuse of the same parked object.
        instance = KERNELS["queue"].build(12)
        processor = _assert_identical(instance, protocol, max_frames=1)
        assert processor.frames_recycled > 0

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=100_000),
           protocol=st.sampled_from(PROTOCOLS))
    def test_property_random_programs(self, seed, protocol):
        _assert_identical(_instance(seed), protocol)


class TestRecyclingActive:
    def test_counters_move_on_real_kernel(self):
        instance = KERNELS["vecsum"].build(64)
        processor, result = _run(instance, "dsre", True)
        assert result.halted
        assert processor.frames_recycled > 0
        # Allocation is bounded by the arena working set, not by the
        # number of dynamic blocks: far fewer frames are built than
        # committed.
        assert processor.frames_allocated < result.stats.committed_blocks

    def test_opt_out_allocates_fresh(self):
        instance = KERNELS["vecsum"].build(64)
        processor, result = _run(instance, "dsre", False)
        assert result.halted
        assert processor.frames_recycled == 0
        assert processor.frames_allocated >= result.stats.committed_blocks


class TestFrameReset:
    def _dirty_frame(self):
        instance = KERNELS["queue"].build(12)
        config = default_config(recovery="dsre")
        processor = Processor(instance.program, config,
                              instance.initial_regs,
                              golden=golden_of(instance))
        processor.run()
        # Any frame that lived through the run is thoroughly dirty.
        block = next(iter(instance.program.blocks.values()))
        frame = Frame(uid=900, seq=900, block=block)
        frame.predicted_next = "loop"
        frame.fetched_next = "loop"
        if frame.subscribers:
            frame.subscribers[0].append(901)
        for fwd in frame.read_forwards:
            fwd.wave, fwd.value, fwd.final = 3, 42, True
        node = frame.nodes[0]
        node.exec_count = 5
        node.out_wave = 9
        return frame, node

    def test_reset_restores_fresh_state(self):
        frame, node = self._dirty_frame()
        life_before = node.life
        frame.reset_for_reuse(uid=901, seq=901)
        assert frame.uid == 901 and frame.seq == 901
        assert frame.predicted_next is None
        assert frame.fetched_next is None
        assert all(s == [] for s in frame.subscribers)
        assert all(f.wave == 0 and f.value is None and not f.final
                   for f in frame.read_forwards)
        assert all(f is None for f in frame.write_forwarded)
        assert all(not b.final for b in frame.write_buffers)
        assert not frame.branch_buffer.final
        assert frame.branch_label is None
        for n in frame.nodes:
            assert n.frame_uid == 901
            assert n.state is NodeState.IDLE
            assert n.exec_count == 0
            assert n.out_wave == 0
        assert node.life == life_before + 1

    @staticmethod
    def _remapped():
        """A processor whose first frame was mapped, squashed and mapped
        again before the first cycle: the second map recycles the first
        frame, so each constant node has a stale ready entry (its
        previous life) beside its fresh one."""
        instance = KERNELS["vecsum"].build_test()
        processor = Processor(instance.program,
                              default_config(recovery="dsre"),
                              instance.initial_regs,
                              golden=golden_of(instance))
        entry = instance.program.entry
        processor._map_frame(entry)
        first = processor.frames[0]
        processor.squash_from(0, entry, cause="branch")
        processor._map_frame(entry)
        assert processor.frames == [first] and first.uid == 1
        return instance, processor, first

    def test_stale_tile_entries_skipped_by_life(self):
        instance, processor, frame = self._remapped()
        trace = EventTrace()
        processor.attach_hooks(trace)
        processor.run()
        assert not instance.check(processor.arch)
        # Each constant node of the recycled frame issued once, from its
        # fresh entry: a stale entry issuing it would tag its FU pass
        # with the old life, and the completion would never land.
        issued = Counter(e.data["node"] for e in trace.events
                         if e.kind == "issue" and e.data["frame_uid"] == 1)
        constants = [n.index for n in frame.nodes if not n._buffer_list]
        assert constants and all(issued[i] == 1 for i in constants)

    def test_reenqueue_after_recycle_not_deduped_away(self):
        _, processor, frame = self._remapped()
        node = next(n for n in frame.nodes if not n._buffer_list)
        tile = processor.tiles[processor._inst_tile[node.index]]
        # The new life got its own entry even though the stale one is
        # still sitting in the heap.
        assert [e[4] for e in tile._ready if e[3] is node] == [0, 1]
        assert tile._queued[node] == node.life == 1


class TestSharedArenaAcrossCells:
    """One arena per program object may carry frames across machine
    points of a kernel (the harness fast path and `run_cell_chunk` both
    do this); records must stay byte-identical to isolated execution."""

    def test_cross_cell_reuse_matches_isolated(self):
        from repro.harness import SweepPlan, execute_cell
        inst = KERNELS["queue"].build(12)
        plan = SweepPlan()
        for point in ("dsre", "aggressive", "storeset", "hybrid"):
            plan.add(inst, point)
        arena = {}
        shared = [execute_cell(cell, frame_arena=arena)
                  for cell in plan.cells]
        isolated = [execute_cell(cell) for cell in plan.cells]
        assert shared == isolated
        # Frames were actually parked and survived into later cells.
        assert any(arena.values())

    def test_runner_results_match_arena_free_baseline(self):
        from repro.harness import ParallelRunner, SweepPlan
        inst = KERNELS["vecsum"].build(32)
        plan = SweepPlan()
        for point in ("dsre", "oracle", "conservative"):
            plan.add(inst, point)
        pooled = ParallelRunner(jobs=1).run_plan(plan)
        baseline = []
        for cell in plan.cells:
            config = cell.config()
            golden = golden_of(cell.instance)
            proc = Processor(cell.instance.program, config,
                             cell.instance.initial_regs, golden=golden,
                             recycle_frames=False)
            baseline.append(proc.run())
        for got, want in zip(pooled, baseline):
            assert got.stats.as_dict() == want.stats.as_dict()
            assert got.arch_digest == arch_state_digest(want.arch)
