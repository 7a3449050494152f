"""The signalled commit gate commits exactly when polling would.

``Processor.run`` polls the commit gate only while the commit signal is
raised: events that can open a gate raise it (write-slot and branch
deposits that change the slot, LSQ deliveries), a poll that finds the
gate shut clears it, and a poll that commits leaves it raised for the
next head (docs/PROTOCOL.md §3).
:class:`PollingProcessor` keeps the signal raised on every iteration,
so it polls whenever frames are in flight and the store drain is done,
as the simulator did before the signal existed.  If some event opened a
gate without raising the signal, the signalled run would commit late
(different counters) or never (the deadlock ``SimulationError``).

Compared on every machine point over the hand-written kernels at test
scale, a fixed slice of the corpus sample, hypothesis-drawn random
programs, and ``txwave`` with a frame window smaller than its epoch
(the window-saturation valve of its gate).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import run_program
from repro.harness.parallel import arch_state_digest
from repro.harness.runner import STANDARD_POINTS, golden_of
from repro.uarch.config import default_config
from repro.uarch.processor import Processor
from repro.workloads import KERNELS
from repro.workloads.common import KernelInstance
from repro.workloads.corpus import build_corpus, sample_corpus
from repro.workloads.randprog import generate

POINTS = sorted(STANDARD_POINTS)

#: A fixed slice of the corpus sample (every shape and conflict band).
CORPUS = sample_corpus(60, seed=0x5C)


class PollingProcessor(Processor):
    """Polls the commit gate on every iteration: the signal never drops."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.commit_signal = True

    def _tick_commit(self) -> None:
        super()._tick_commit()
        self.commit_signal = True


def _outcome(cls, instance, point, **overrides):
    policy, recovery = STANDARD_POINTS[point]
    config = default_config(dependence_policy=policy, recovery=recovery,
                            **overrides)
    result = cls(instance.program, config, instance.initial_regs,
                 golden=golden_of(instance)).run()
    return {
        "stats": result.stats.as_dict(),
        "lsq": dataclasses.asdict(result.lsq_stats),
        "network": dataclasses.asdict(result.network_stats),
        "l1": dataclasses.asdict(result.l1_stats),
        "predictor": dataclasses.asdict(result.predictor_stats),
        "arch": arch_state_digest(result.arch),
    }


def assert_same_as_polling(instance, point, **overrides):
    signalled = _outcome(Processor, instance, point, **overrides)
    polling = _outcome(PollingProcessor, instance, point, **overrides)
    assert signalled == polling, f"{instance.name} @ {point} {overrides}"


def _random_instance(seed, n_blocks, ops_per_block):
    rp = generate(seed, n_blocks=n_blocks, ops_per_block=ops_per_block)
    _, state = run_program(rp.program)
    return KernelInstance(
        name=f"rand{seed}", program=rp.program,
        expected_regs={r: state.get_reg(r) for r in rp.check_regs},
        expected_mem_words=dict(state.memory.nonzero_words()))


def test_reference_polls_every_iteration():
    instance = KERNELS["vecsum"].build_test()
    counts = {}
    for cls in (Processor, PollingProcessor):
        processor = cls(instance.program, default_config(),
                        instance.initial_regs, golden=golden_of(instance))
        polls = [0]
        tick = processor._tick_commit

        def counted(tick=tick, polls=polls):
            polls[0] += 1
            tick()

        processor._tick_commit = counted
        processor.run()
        counts[cls.__name__] = polls[0]
    # The reference really is the every-iteration poller.
    assert counts["PollingProcessor"] > counts["Processor"] > 0


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels(kernel, point):
    assert_same_as_polling(KERNELS[kernel].build_test(), point)


@pytest.mark.parametrize("point", POINTS)
def test_corpus_slice(point):
    for params in CORPUS:
        assert_same_as_polling(build_corpus(params), point)


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000),
       n_blocks=st.integers(min_value=2, max_value=6),
       ops_per_block=st.integers(min_value=4, max_value=12))
def test_random_programs(seed, n_blocks, ops_per_block):
    instance = _random_instance(seed, n_blocks, ops_per_block)
    for point in POINTS:
        assert_same_as_polling(instance, point)


@pytest.mark.parametrize("max_frames", [1, 2, 3])
@pytest.mark.parametrize("kernel", ["histogram", "queue", "vecsum"])
def test_txwave_window_below_epoch(kernel, max_frames):
    assert_same_as_polling(KERNELS[kernel].build_test(), "txwave",
                           max_frames=max_frames, txwave_epoch_blocks=4)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_txwave_window_below_epoch_random(seed):
    assert_same_as_polling(_random_instance(seed, 5, 8), "txwave",
                           max_frames=2, txwave_epoch_blocks=3)
