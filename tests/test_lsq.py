"""Unit tests for the load/store queue (forwarding, checking, confirm)."""

import pytest

from repro.arch.memory import SparseMemory
from repro.errors import SimulationError
from repro.isa import ProgramBuilder
from repro.isa.limits import BlockLimits
from repro.spec.policy import AggressivePolicy, ConservativePolicy
from repro.uarch.cache import Cache
from repro.uarch.config import default_config
from repro.uarch.lsq import (LSID_BITS, Confirmed, LoadResponse,
                             LoadStoreQueue, MemKind, Violation)
from repro.uarch.recovery import build_recovery


def make_block(name, ops):
    """Build a block containing the given memory ops (loads write R1+)."""
    pb = ProgramBuilder(entry=name)
    b = pb.block(name)
    addr = b.const(0x0)
    reg = 1
    for kind in ops:
        if kind == "load":
            b.write(reg, b.load(addr))
            reg += 1
        else:
            b.store(addr, b.movi(0))
    if reg == 1:
        b.write(reg, b.movi(0))
    b.branch("@halt")
    return pb.build().block(name)


def make_lsq(policy=None, recovery="dsre", memory=None):
    memory = memory or SparseMemory()
    cache = Cache("d", 1024, 2, 64, hit_latency=2, miss_latency=50)
    protocol = build_recovery(default_config(recovery=recovery))
    return LoadStoreQueue(memory, cache, policy or AggressivePolicy(),
                          forward_latency=2, protocol=protocol), memory


class TestRegistration:
    def test_entries_created(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("b", ["load", "store"]))
        assert lsq.entry_count == 2
        assert lsq.entry(0, 0).kind is MemKind.LOAD
        assert lsq.entry(0, 1).kind is MemKind.STORE

    def test_out_of_order_registration_rejected(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 5, make_block("b", ["load"]))
        with pytest.raises(SimulationError):
            lsq.register_frame(1, 4, make_block("b", ["load"]))

    def test_lsid_bound_must_fit_the_order_key(self):
        # Integer order keys hold the LSID in LSID_BITS bits; a block
        # whose limits allow larger LSIDs is refused, not misordered.
        block = make_block("b", ["load"])
        block.limits = BlockLimits(max_memory_ops=(1 << LSID_BITS) + 1)
        lsq, _ = make_lsq()
        with pytest.raises(SimulationError, match="LSID field"):
            lsq.register_frame(0, 0, block)
        block.limits = BlockLimits(max_memory_ops=1 << LSID_BITS)
        lsq.register_frame(0, 0, block)
        assert lsq.entry(0, 0).order_key == 0

    def test_drop_frame(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("b", ["load"]))
        lsq.drop_frame(0)
        assert lsq.entry_count == 0


class TestForwarding:
    def test_load_from_memory(self):
        lsq, mem = make_lsq()
        mem.write_word(0x100, 42)
        lsq.register_frame(0, 0, make_block("b", ["load"]))
        actions = lsq.load_request(0, 0, 0x100, wave=1)
        (resp,) = actions
        assert isinstance(resp, LoadResponse)
        assert resp.value == 42
        assert resp.latency >= 2      # cache access

    def test_full_forward_from_store(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.store_update(0, 0, 0x100, 7, wave=1, final=False, null=False)
        (resp,) = lsq.load_request(1, 0, 0x100, wave=1)
        assert resp.value == 7
        assert resp.latency == 2      # forward latency
        assert lsq.stats.full_forwards == 1

    def test_partial_forward_merges_bytes(self):
        lsq, mem = make_lsq()
        mem.write_word(0x100, 0xAAAAAAAAAAAAAAAA)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        # 1-byte store into the middle of the loaded word.
        entry = lsq.entry(0, 0)
        entry.width = 1
        lsq.store_update(0, 0, 0x102, 0xBB, wave=1, final=False, null=False)
        (resp,) = lsq.load_request(1, 0, 0x100, wave=1)
        assert resp.value == 0xAAAAAAAAAABBAAAA
        assert lsq.stats.partial_forwards == 1

    def test_youngest_older_store_wins(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("a", ["store", "store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.store_update(0, 0, 0x100, 1, wave=1, final=False, null=False)
        lsq.store_update(0, 1, 0x100, 2, wave=1, final=False, null=False)
        (resp,) = lsq.load_request(1, 0, 0x100, wave=1)
        assert resp.value == 2

    def test_younger_store_not_forwarded(self):
        lsq, mem = make_lsq()
        mem.write_word(0x100, 9)
        lsq.register_frame(0, 0, make_block("a", ["load"]))
        lsq.register_frame(1, 1, make_block("b", ["store"]))
        lsq.store_update(1, 0, 0x100, 55, wave=1, final=False, null=False)
        (resp,) = lsq.load_request(0, 0, 0x100, wave=1)
        assert resp.value == 9

    def test_straddling_store_forwards_from_both_buckets(self):
        # Bytes 0x10C-0x113 lie in two of the index's 16-byte buckets.
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load", "load", "load"]))
        lsq.store_update(0, 0, 0x10C, 0x8877665544332211, wave=1,
                         final=False, null=False)
        (low,) = lsq.load_request(1, 0, 0x108, wave=1)
        (high,) = lsq.load_request(1, 1, 0x110, wave=1)
        (whole,) = lsq.load_request(1, 2, 0x10C, wave=1)
        assert low.value == 0x4433221100000000
        assert high.value == 0x88776655
        assert whole.value == 0x8877665544332211
        assert lsq.stats.full_forwards == 1
        assert lsq.stats.partial_forwards == 2


class TestDependenceChecking:
    def _setup_conflict(self, recovery):
        lsq, mem = make_lsq(recovery=recovery)
        mem.write_word(0x100, 10)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        # Load issues before the older store resolves.
        (resp,) = lsq.load_request(1, 0, 0x100, wave=1)
        assert resp.value == 10
        return lsq

    def test_dsre_redelivers(self):
        lsq = self._setup_conflict("dsre")
        actions = lsq.store_update(0, 0, 0x100, 77, wave=1,
                                   final=False, null=False)
        redeliveries = [a for a in actions if isinstance(a, LoadResponse)]
        assert len(redeliveries) == 1
        assert redeliveries[0].value == 77
        assert redeliveries[0].is_redelivery
        assert lsq.stats.redeliveries == 1

    def test_flush_violates(self):
        lsq = self._setup_conflict("flush")
        actions = lsq.store_update(0, 0, 0x100, 77, wave=1,
                                   final=False, null=False)
        violations = [a for a in actions if isinstance(a, Violation)]
        assert len(violations) == 1
        assert violations[0].load.seq == 1
        assert lsq.stats.violations == 1

    def test_silent_store_no_action(self):
        lsq = self._setup_conflict("dsre")
        actions = lsq.store_update(0, 0, 0x100, 10, wave=1,
                                   final=False, null=False)
        assert not [a for a in actions if isinstance(a, LoadResponse)]

    def test_non_overlapping_store_no_action(self):
        lsq = self._setup_conflict("dsre")
        actions = lsq.store_update(0, 0, 0x200, 77, wave=1,
                                   final=False, null=False)
        assert not [a for a in actions if isinstance(a, LoadResponse)]

    def test_store_address_change_rechecks_old_range(self):
        lsq = self._setup_conflict("dsre")
        lsq.store_update(0, 0, 0x100, 77, wave=1, final=False, null=False)
        # Store re-executes to a different address: the load's value must
        # revert to memory.
        actions = lsq.store_update(0, 0, 0x300, 77, wave=2,
                                   final=False, null=False)
        redeliveries = [a for a in actions if isinstance(a, LoadResponse)]
        assert len(redeliveries) == 1
        assert redeliveries[0].value == 10

    def test_straddling_store_rechecks_its_second_bucket(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        (resp,) = lsq.load_request(1, 0, 0x110, wave=1)
        assert resp.value == 0
        # The store covers 0x10C-0x113: two buckets, the load in the second.
        actions = lsq.store_update(0, 0, 0x10C, 0x8877665544332211, wave=1,
                                   final=False, null=False)
        (redelivery,) = [a for a in actions if isinstance(a, LoadResponse)]
        assert redelivery.value == 0x88776655

    def test_stale_store_wave_ignored(self):
        lsq = self._setup_conflict("dsre")
        lsq.store_update(0, 0, 0x100, 77, wave=3, final=False, null=False)
        actions = lsq.store_update(0, 0, 0x100, 99, wave=2,
                                   final=False, null=False)
        assert actions == []

    def test_policy_trained_on_misspeculation(self):
        from repro.spec.storeset import StoreSetPolicy
        policy = StoreSetPolicy(64)
        lsq, mem = make_lsq(policy=policy, recovery="dsre")
        mem.write_word(0x100, 10)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.load_request(1, 0, 0x100, wave=1)
        lsq.store_update(0, 0, 0x100, 77, wave=1, final=False, null=False)
        assert policy.stats.trainings == 1
        assert policy.ssid_of(("a", 0)) is not None
        assert policy.ssid_of(("a", 0)) == policy.ssid_of(("b", 0))


class TestDeferral:
    def test_conservative_defers_until_stores_resolve(self):
        lsq, mem = make_lsq(policy=ConservativePolicy())
        mem.write_word(0x100, 10)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        assert lsq.load_request(1, 0, 0x100, wave=1) == []
        assert lsq.entry(1, 0).deferred
        actions = lsq.store_update(0, 0, 0x500, 1, wave=1,
                                   final=False, null=False)
        responses = [a for a in actions if isinstance(a, LoadResponse)]
        assert len(responses) == 1
        assert responses[0].value == 10

    def test_null_store_wakes_deferred(self):
        lsq, mem = make_lsq(policy=ConservativePolicy())
        mem.write_word(0x100, 10)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.load_request(1, 0, 0x100, wave=1)
        actions = lsq.store_update(0, 0, None, None, wave=1,
                                   final=True, null=True)
        responses = [a for a in actions if isinstance(a, LoadResponse)]
        assert len(responses) == 1


class TestConfirmation:
    def test_confirm_when_all_final(self):
        lsq, mem = make_lsq(recovery="dsre")
        mem.write_word(0x100, 5)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.store_update(0, 0, 0x200, 1, wave=1, final=True, null=False)
        actions = lsq.load_request(1, 0, 0x100, wave=1, final=True)
        confirms = [a for a in actions if isinstance(a, Confirmed)]
        assert len(confirms) == 1
        assert lsq.entry(1, 0).confirmed
        assert lsq.stats.confirmations == 1

    def test_no_confirm_while_store_pending(self):
        lsq, mem = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        actions = lsq.load_request(1, 0, 0x100, wave=1, final=True)
        assert not [a for a in actions if isinstance(a, Confirmed)]

    def test_addr_final_nonoverlap_unlocks_confirm(self):
        lsq, mem = make_lsq(recovery="dsre")
        mem.write_word(0x100, 5)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        # Store address is final but its data is not.
        lsq.store_update(0, 0, 0x900, 1, wave=1, final=False, null=False,
                         addr_final=True)
        actions = lsq.load_request(1, 0, 0x100, wave=1, final=True)
        assert [a for a in actions if isinstance(a, Confirmed)]

    def test_addr_final_overlapping_blocks_confirm(self):
        lsq, mem = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.store_update(0, 0, 0x100, 1, wave=1, final=False, null=False,
                         addr_final=True)
        actions = lsq.load_request(1, 0, 0x100, wave=1, final=True)
        assert not [a for a in actions if isinstance(a, Confirmed)]

    def test_final_redelivery_on_mismatch(self):
        lsq, mem = make_lsq(recovery="dsre")
        mem.write_word(0x100, 5)
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["load"]))
        lsq.load_request(1, 0, 0x100, wave=1, final=True)   # returns 5
        entry = lsq.entry(1, 0)
        entry.returned_value = 999                          # force mismatch
        actions = lsq.store_update(0, 0, 0x900, 1, wave=1,
                                   final=True, null=False)
        responses = [a for a in actions if isinstance(a, LoadResponse)]
        assert len(responses) == 1
        assert responses[0].final
        assert responses[0].value == 5
        assert lsq.stats.final_redeliveries == 1

    def test_flush_mode_never_confirms(self):
        lsq, mem = make_lsq(recovery="flush")
        lsq.register_frame(0, 0, make_block("b", ["load"]))
        actions = lsq.load_request(0, 0, 0x100, wave=1, final=True)
        assert not [a for a in actions if isinstance(a, Confirmed)]
        # Completion gating still satisfied.
        assert lsq.frame_mem_final(0)


class TestCommit:
    def test_commit_returns_stores_in_lsid_order(self):
        lsq, _ = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("a", ["store", "store"]))
        lsq.store_update(0, 1, 0x108, 2, wave=1, final=True, null=False)
        lsq.store_update(0, 0, 0x100, 1, wave=1, final=True, null=False)
        stores = lsq.commit_frame(0)
        assert stores == [(0x100, 1, 8), (0x108, 2, 8)]
        assert lsq.entry_count == 0

    def test_commit_excludes_null_stores(self):
        lsq, _ = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.store_update(0, 0, None, None, wave=1, final=True, null=True)
        assert lsq.commit_frame(0) == []

    def test_only_oldest_commits(self):
        lsq, _ = make_lsq()
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        lsq.register_frame(1, 1, make_block("b", ["store"]))
        with pytest.raises(SimulationError, match="oldest"):
            lsq.commit_frame(1)

    def test_incomplete_commit_rejected(self):
        lsq, _ = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("a", ["store"]))
        with pytest.raises(SimulationError, match="incomplete"):
            lsq.commit_frame(0)


class TestNullLoads:
    def test_null_load_completes(self):
        lsq, _ = make_lsq(recovery="dsre")
        lsq.register_frame(0, 0, make_block("b", ["load"]))
        lsq.load_null(0, 0, wave=1, final=True)
        assert lsq.frame_mem_final(0)

    def test_null_then_real_load(self):
        lsq, mem = make_lsq(recovery="dsre")
        mem.write_word(0x100, 3)
        lsq.register_frame(0, 0, make_block("b", ["load"]))
        lsq.load_null(0, 0, wave=1, final=False)
        (resp,) = [a for a in lsq.load_request(0, 0, 0x100, wave=2)
                   if isinstance(a, LoadResponse)]
        assert resp.value == 3
        assert not lsq.entry(0, 0).null
