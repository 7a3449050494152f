"""Differential test: indexed LSQ vs the naive full-scan reference.

The indexed :class:`~repro.uarch.lsq.LoadStoreQueue` answers every
ordering query (older stores, wake candidates, recheck candidates,
forwarding sets) from address-bucketed, seq-ordered indexes; the
:class:`~repro.uarch.lsq_naive.NaiveLoadStoreQueue` answers the same
queries by scanning every in-flight entry.  For seeded random programs run
through the full processor at every standard machine point, the two must
produce **identical serialized action streams** — same events, same order,
same payloads — identical architectural state, and identical
``LsqStats`` and ``SimStats``.  Any divergence means an index is stale or
mis-bucketed.

The certificate is not compared: the naive reference does not count its
triggers (see :mod:`repro.uarch.lsq_naive`).  ``tests/test_specialize.py``
pins the indexed LSQ's certificates instead.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.uarch.processor as procmod
from repro.arch import run_program
from repro.harness.runner import STANDARD_POINTS, golden_of
from repro.uarch.config import default_config
from repro.uarch.lsq import Confirmed, LoadResponse, LoadStoreQueue, Violation
from repro.uarch.lsq_naive import NaiveLoadStoreQueue
from repro.uarch.processor import Processor
from repro.workloads.common import KernelInstance
from repro.workloads.randprog import generate

SEEDS = [0, 1, 2, 3, 5, 8, 13, 21]
POINTS = list(STANDARD_POINTS)


def _serialize(action):
    if isinstance(action, LoadResponse):
        return ("resp", action.entry.frame_uid, action.entry.lsid,
                action.value, action.latency, action.final,
                action.is_redelivery)
    if isinstance(action, Violation):
        return ("viol", action.load.frame_uid, action.load.lsid,
                action.store.frame_uid, action.store.lsid)
    if isinstance(action, Confirmed):
        return ("conf", action.entry.frame_uid, action.entry.lsid,
                action.value, action.latency)
    raise TypeError(f"unknown LSQ action {action!r}")


#: Event methods whose calls and returned action streams are recorded.
#: ``epoch_mem_final`` is the epoch seam's commit-gate query (polled by
#: epoch-granular protocols): the indexed emptiness check must return the
#: same booleans, in the same call sequence, as the naive full scan.
_RECORDED = ("load_request", "load_null", "load_addr_final", "store_update",
             "register_frame", "drop_frame", "commit_frame", "poison",
             "epoch_mem_final")


def _recorder(base_cls, log):
    """A subclass of ``base_cls`` appending every event to ``log``."""

    def wrap(name):
        def method(self, *args, **kwargs):
            out = getattr(base_cls, name)(self, *args, **kwargs)
            if isinstance(out, list) and out \
                    and not isinstance(out[0], tuple):
                recorded = [_serialize(a) for a in out]
            else:
                recorded = out          # None, [] or commit stores
            log.append((name, args, tuple(sorted(kwargs.items())),
                        recorded))
            return out
        return method

    namespace = {name: wrap(name) for name in _RECORDED}
    return type(f"Recording{base_cls.__name__}", (base_cls,), namespace)


def _instance(seed, n_blocks=4, ops_per_block=8):
    rp = generate(seed, n_blocks=n_blocks, ops_per_block=ops_per_block)
    _, state = run_program(rp.program)
    return KernelInstance(
        name=f"rand{seed}",
        program=rp.program,
        expected_regs={r: state.get_reg(r) for r in rp.check_regs},
        expected_mem_words=dict(state.memory.nonzero_words()))


def _run_with(monkeypatch, lsq_cls, instance, point):
    """Run the processor with ``lsq_cls`` as the LSQ; return (log, state):
    state is the run's SimStats and LsqStats as dicts and the final
    memory."""
    log = []
    monkeypatch.setattr(procmod, "LoadStoreQueue", _recorder(lsq_cls, log))
    policy, recovery = STANDARD_POINTS[point]
    config = default_config().derive(dependence_policy=policy,
                                     recovery=recovery)
    processor = Processor(instance.program, config, instance.initial_regs,
                          golden=golden_of(instance))
    result = processor.run()
    assert not instance.check(processor.arch)
    return log, (dataclasses.asdict(result.stats),
                 dataclasses.asdict(result.lsq_stats),
                 sorted(processor.arch.memory.nonzero_words()))


def _assert_identical(monkeypatch, instance, point):
    indexed_log, indexed_state = _run_with(
        monkeypatch, LoadStoreQueue, instance, point)
    naive_log, naive_state = _run_with(
        monkeypatch, NaiveLoadStoreQueue, instance, point)
    assert indexed_state == naive_state, \
        f"{instance.name} @ {point}: stats or state diverged"
    assert len(indexed_log) == len(naive_log), \
        f"{instance.name} @ {point}: different event counts"
    for i, (a, b) in enumerate(zip(indexed_log, naive_log)):
        assert a == b, \
            f"{instance.name} @ {point}: event {i} diverged:\n{a}\n{b}"


class TestIndexedVsNaive:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("point", POINTS)
    def test_random_programs(self, monkeypatch, seed, point):
        _assert_identical(monkeypatch, _instance(seed), point)

    @pytest.mark.parametrize("point", POINTS)
    def test_deeper_random_program(self, monkeypatch, point):
        _assert_identical(
            monkeypatch, _instance(99, n_blocks=6, ops_per_block=10), point)

    @settings(max_examples=10, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=100_000),
           point=st.sampled_from(POINTS))
    def test_property_random_programs(self, monkeypatch, seed, point):
        _assert_identical(monkeypatch, _instance(seed), point)

    def test_recorder_sees_lsq_traffic(self, monkeypatch):
        """Sanity: the recording hook actually captures events."""
        log, _ = _run_with(monkeypatch, LoadStoreQueue, _instance(0), "dsre")
        names = {name for name, *_ in log}
        assert "register_frame" in names and "commit_frame" in names
        assert any(n in names for n in ("load_request", "load_null"))
