"""Timing-simulator corner cases: widths, fan-out, predicated memory,
resource knobs, and statistics plumbing."""

import pytest

from repro.isa import ProgramBuilder

from .conftest import build_single_block, run_timing


class TestMixedWidthForwarding:
    def test_narrow_store_wide_load_through_lsq(self):
        """Partial forwarding (store bytes + memory bytes) in the LSQ."""
        pb = ProgramBuilder(entry="a")
        b = pb.block("a")
        base = b.const(0x1000)
        b.store(base, b.movi(0xAB), width=1, offset=2)
        b.write(1, base)
        b.branch("b")
        b = pb.block("b")
        b.write(2, b.load(b.read(1), width=4))
        b.branch("@halt")
        pb.data_words("d", 0x1000, [0x11111111])
        result, arch = run_timing(pb.build())
        assert arch.get_reg(2) == 0x11AB1111

    def test_wide_store_narrow_load(self):
        def body(b):
            addr = b.const(0x2000)
            b.store(addr, b.movi(0x0102030405060708))
            b.write(1, b.load(addr, width=2, offset=2))
        _, arch = run_timing(build_single_block(body))
        assert arch.get_reg(1) == 0x0506

    @pytest.mark.parametrize("recovery", ["flush", "dsre"])
    def test_byte_overlap_conflict(self, recovery):
        """A 1-byte store overlapping an 8-byte speculative load."""
        pb = ProgramBuilder(entry="a")
        b = pb.block("a")
        base = b.const(0x3000)
        slow = b.mul(b.mul(b.movi(0xEE), imm=1), imm=1)
        b.store(base, slow, width=1, offset=3)
        b.write(1, base)
        b.branch("b")
        b = pb.block("b")
        b.write(2, b.load(b.read(1)))
        b.branch("@halt")
        _, arch = run_timing(pb.build(), recovery=recovery)
        assert arch.get_reg(2) == 0xEE000000


class TestFanoutAndPredicationTiming:
    def test_wide_fanout_block(self):
        pb = ProgramBuilder(entry="m")
        b = pb.block("m")
        x = b.movi(7)
        total = b.movi(0)
        for _ in range(12):
            total = b.add(total, x)
        b.write(1, total)
        b.branch("@halt")
        _, arch = run_timing(pb.build())
        assert arch.get_reg(1) == 84

    def test_predicated_load_nullified(self):
        def body(b):
            p = b.movi(0)
            dead = b.load(b.const(0x100), pred=p)
            live = b.movi(5)
            val = b.select(p, dead, live)
            b.write(1, val)
        _, arch = run_timing(build_single_block(body))
        assert arch.get_reg(1) == 5

    def test_predicate_chain_through_memory(self):
        def body(b):
            addr = b.const(0x400)
            b.store(addr, b.movi(1))
            flag = b.load(addr)
            p = b.teq(flag, imm=1)
            b.store(addr, b.movi(99), offset=8, pred=p)
            b.write(1, b.load(addr, offset=8))
        _, arch = run_timing(build_single_block(body))
        assert arch.get_reg(1) == 99


class TestResourceKnobs:
    def test_single_tile_grid(self, counter_program):
        result, arch = run_timing(counter_program, grid_width=1,
                                  grid_height=1)
        assert arch.get_reg(2) == sum(range(8))

    def test_port_bandwidth_one(self, counter_program):
        # One delivery per destination per cycle: the loop's operand
        # bursts slip and the run stretches; at the default width of
        # four nothing slips.
        result, arch = run_timing(counter_program, port_bandwidth=1)
        assert arch.get_reg(2) == sum(range(8))
        net = result.network_stats
        assert (result.stats.cycles, net.sent, net.delivered,
                net.contention_slips) == (95, 105, 103, 47)
        wide, _ = run_timing(counter_program)
        assert (wide.stats.cycles, wide.network_stats.contention_slips) \
            == (81, 0)

    def test_commit_store_bandwidth(self):
        def body(b):
            base = b.const(0x5000)
            for k in range(8):
                b.store(base, b.movi(k), offset=8 * k)
            b.write(1, b.movi(1))
        prog = build_single_block(body)
        fast, _ = run_timing(prog, commit_store_bandwidth=8)
        slow, _ = run_timing(prog, commit_store_bandwidth=1)
        assert slow.stats.cycles >= fast.stats.cycles

    def test_icache_miss_penalty_hurts(self, counter_program):
        cheap, _ = run_timing(counter_program, icache_miss_penalty=0)
        costly, _ = run_timing(counter_program, icache_miss_penalty=40)
        assert costly.stats.cycles > cheap.stats.cycles

    def test_slow_dram_hurts_pointer_chase(self):
        from repro.workloads import KERNELS
        inst = KERNELS["listsum"].build_test()
        from repro.harness.runner import run_point
        fast = run_point(inst, "dsre", dram_latency=20)
        slow = run_point(inst, "dsre", dram_latency=300)
        assert slow.stats.cycles > fast.stats.cycles


class TestStatsPlumbing:
    def test_occupancy_sampled(self, counter_program):
        result, _ = run_timing(counter_program)
        assert result.stats.average_occupancy > 0

    def test_commit_wave_counted_in_dsre(self, counter_program):
        dsre, _ = run_timing(counter_program, recovery="dsre")
        assert dsre.network_stats.final_sent > 0

    def test_flush_mode_sends_fewer_messages(self, counter_program):
        dsre, _ = run_timing(counter_program, recovery="dsre")
        flush, _ = run_timing(counter_program, recovery="flush")
        assert flush.network_stats.sent <= dsre.network_stats.sent

    def test_executions_at_least_committed(self, counter_program):
        result, _ = run_timing(counter_program)
        stats = result.stats
        assert stats.executions >= stats.committed_instructions

    def test_frames_mapped_at_least_committed(self, counter_program):
        result, _ = run_timing(counter_program)
        assert result.stats.frames_mapped >= result.stats.committed_blocks
