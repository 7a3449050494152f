"""Unit tests for dependence-speculation policies."""

import pytest

from repro.arch import run_program
from repro.arch.memory import SparseMemory
from repro.isa import ProgramBuilder
from repro.spec import (AggressivePolicy, ConservativePolicy, OraclePolicy,
                        StoreSetPolicy, build_policy)
from repro.spec.policy import LoadQuery, StoreView
from repro.uarch.cache import Cache
from repro.uarch.config import default_config
from repro.uarch.lsq import LoadStoreQueue
from repro.uarch.recovery import build_recovery


def load_q(name="blk", lsid=0, seq=5, addr=0x100):
    return LoadQuery((name, lsid), seq, lsid, addr, 8)


def store_v(name="blk", lsid=1, seq=4, resolved=False):
    return StoreView((name, lsid), seq, lsid, resolved)


class TestTrivialPolicies:
    def test_conservative_waits_on_any_unresolved(self):
        policy = ConservativePolicy()
        assert policy.should_wait(load_q(), [store_v(resolved=False)])
        assert not policy.should_wait(load_q(), [store_v(resolved=True)])
        assert not policy.should_wait(load_q(), [])

    def test_aggressive_never_waits(self):
        policy = AggressivePolicy()
        assert not policy.should_wait(load_q(), [store_v(resolved=False)])


class TestStoreSet:
    def test_untrained_never_waits(self):
        policy = StoreSetPolicy(64)
        assert not policy.should_wait(load_q(), [store_v()])

    def test_trained_pair_waits(self):
        policy = StoreSetPolicy(64)
        policy.on_misspeculation(("blk", 0), ("blk", 1))
        assert policy.should_wait(load_q("blk", 0), [store_v("blk", 1)])

    def test_trained_pair_released_when_resolved(self):
        policy = StoreSetPolicy(64)
        policy.on_misspeculation(("blk", 0), ("blk", 1))
        assert not policy.should_wait(
            load_q("blk", 0), [store_v("blk", 1, resolved=True)])

    def test_unrelated_store_ignored(self):
        policy = StoreSetPolicy(64)
        policy.on_misspeculation(("blk", 0), ("blk", 1))
        assert not policy.should_wait(load_q("blk", 0),
                                      [store_v("other", 3)])

    def test_merge_rule(self):
        policy = StoreSetPolicy(64)
        policy.on_misspeculation(("a", 0), ("a", 1))
        policy.on_misspeculation(("b", 0), ("b", 1))
        assert policy.ssid_of(("a", 0)) != policy.ssid_of(("b", 0))
        policy.on_misspeculation(("a", 0), ("b", 1))
        assert policy.ssid_of(("a", 0)) == policy.ssid_of(("b", 1))
        assert policy.stats.merges == 1

    def test_join_existing_set(self):
        policy = StoreSetPolicy(64)
        policy.on_misspeculation(("a", 0), ("a", 1))
        policy.on_misspeculation(("a", 0), ("a", 3))
        assert policy.ssid_of(("a", 1)) == policy.ssid_of(("a", 3))

    def test_aliasing_with_tiny_table(self):
        policy = StoreSetPolicy(2)
        policy.on_misspeculation(("a", 0), ("a", 1))
        # With only 2 entries, many static ids collide: some unrelated op
        # must share an SSIT entry with one of the trained ones.
        hits = sum(policy.ssid_of((f"x{i}", i % 4)) is not None
                   for i in range(32))
        assert hits > 0

    def test_too_small_table_rejected(self):
        with pytest.raises(ValueError):
            StoreSetPolicy(1)


class TestOracle:
    def test_waits_exactly_for_true_producer(self, store_load_program):
        trace, _ = run_program(store_load_program)
        policy = OraclePolicy(trace)
        query = LoadQuery(("b", 0), 1, 0, 0x2000, 8)
        producer = StoreView(("a", 0), 0, 0, resolved=False)
        other = StoreView(("a", 5), 0, 5, resolved=False)
        assert policy.should_wait(query, [producer])
        assert not policy.should_wait(query, [other])
        assert not policy.should_wait(
            query, [StoreView(("a", 0), 0, 0, resolved=True)])

    def test_no_producer_no_wait(self, counter_program):
        trace, _ = run_program(counter_program)
        policy = OraclePolicy(trace)
        query = LoadQuery(("loop", 0), 1, 0, 0x100, 8)
        assert not policy.should_wait(query, [store_v()])

    def test_wrong_path_is_aggressive(self, store_load_program):
        trace, _ = run_program(store_load_program)
        policy = OraclePolicy(trace)
        wrong = LoadQuery(("zzz", 0), 1, 0, 0x2000, 8)
        assert not policy.on_correct_path(wrong)
        assert not policy.should_wait(
            wrong, [StoreView(("a", 0), 0, 0, resolved=False)])


class _CountingDict(dict):
    """A dict that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def _oracle_poll(older_stores):
    """Poll one oracle load behind ``older_stores`` in-flight stores.

    Block ``s0`` stores to the load's address, ``s1`` .. ``s{n-1}`` to
    other addresses, and block ``ld`` loads it, so the load's producer
    is the oldest store.  Every store is unresolved when the load's
    address arrives.  Returns ``(deferred, store lookups, views built)``
    for that one poll.
    """
    pb = ProgramBuilder(entry="s0")
    for i in range(older_stores):
        b = pb.block(f"s{i}")
        b.store(b.const(0x1000 + 8 * i), b.movi(i + 1))
        b.write(1, b.movi(i))
        b.branch(f"s{i + 1}" if i + 1 < older_stores else "ld")
    b = pb.block("ld")
    b.write(2, b.load(b.const(0x1000)))
    b.branch("@halt")
    program = pb.build()
    trace, _ = run_program(program)
    lsq = LoadStoreQueue(SparseMemory(),
                         Cache("d", 1024, 2, 64, hit_latency=2),
                         OraclePolicy(trace), forward_latency=2,
                         protocol=build_recovery(default_config()))
    for seq, record in enumerate(trace.records):
        lsq.register_frame(seq, seq, program.block(record.name))
    lsq._store_by_key = _CountingDict(lsq._store_by_key)
    views = []
    real_view = lsq._policy_view
    lsq._policy_view = lambda load: views.append(load) or real_view(load)
    assert lsq.load_request(older_stores, 0, 0x1000, 1) == []
    return (lsq.entry(older_stores, 0).deferred, lsq._store_by_key.gets,
            len(views))


class TestOracleIndex:
    def test_a_poll_reads_one_store_however_many_are_older(self):
        # The oracle names its producer by order key and the LSQ looks
        # it up: no view of the older stores is built or scanned.
        for older in (2, 8, 24):
            assert _oracle_poll(older) == (True, 1, 0)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("conservative", ConservativePolicy),
        ("aggressive", AggressivePolicy),
        ("storeset", StoreSetPolicy),
    ])
    def test_build(self, name, cls):
        config = default_config(dependence_policy=name)
        assert isinstance(build_policy(config), cls)

    def test_oracle_requires_trace(self, counter_program):
        from repro.errors import ConfigError
        config = default_config(dependence_policy="oracle")
        with pytest.raises(ConfigError):
            build_policy(config)
        trace, _ = run_program(counter_program)
        assert isinstance(build_policy(config, trace), OraclePolicy)
