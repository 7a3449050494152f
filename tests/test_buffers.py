"""Unit + property tests for wave-tagged token buffers (the DSRE heart)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import SoleBuffer, TokenBuffer, new_buffer
from repro.core.tokens import SlotStatus, Token, inst_dest
from repro.errors import SimulationError
from repro.isa.instruction import Slot

DEST = inst_dest(5, Slot.OP0)
P1 = ("inst", 1)
P2 = ("inst", 2)
P3 = ("read", 0)


def tok(producer, wave, value, final=False):
    return Token(0, DEST, producer, wave, value, final)


class TestSingleProducer:
    def test_empty_initially(self):
        buf = TokenBuffer([P1])
        assert buf.effective.status is SlotStatus.EMPTY
        assert not buf.resolved

    def test_value_resolves(self):
        buf = TokenBuffer([P1])
        changed, final = buf.deposit(tok(P1, 1, 42))
        assert changed and not final
        assert buf.effective.status is SlotStatus.VALUE
        assert buf.effective.value == 42

    def test_higher_wave_supersedes(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 1, 42))
        changed, _ = buf.deposit(tok(P1, 2, 43))
        assert changed
        assert buf.effective.value == 43

    def test_stale_wave_dropped(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 3, 42))
        changed, final = buf.deposit(tok(P1, 1, 99))
        assert not changed and not final
        assert buf.effective.value == 42

    def test_same_wave_same_value_noop(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 1, 42))
        assert buf.deposit(tok(P1, 1, 42)) == (False, False)

    def test_same_wave_different_value_raises(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 1, 42))
        with pytest.raises(SimulationError, match="two different values"):
            buf.deposit(tok(P1, 1, 43))

    def test_finality_upgrade(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 1, 42))
        assert not buf.is_final()
        changed, finality = buf.deposit(tok(P1, 1, 42, final=True))
        assert finality and not changed
        assert buf.is_final()

    def test_null_resolves_all_null(self):
        buf = TokenBuffer([P1])
        buf.deposit(tok(P1, 1, None))
        assert buf.effective.status is SlotStatus.ALL_NULL
        assert buf.resolved

    def test_unknown_producer_raises(self):
        buf = TokenBuffer([P1])
        with pytest.raises(SimulationError, match="unknown producer"):
            buf.deposit(tok(P2, 1, 1))

    def test_no_producers_raises(self):
        with pytest.raises(SimulationError):
            TokenBuffer([])


class TestMultiProducer:
    def test_eager_value_with_pending_producer(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, 10))
        assert buf.effective.status is SlotStatus.VALUE
        assert buf.effective.value == 10
        assert not buf.is_final()

    def test_all_null_needs_every_producer(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, None))
        assert buf.effective.status is SlotStatus.EMPTY
        buf.deposit(tok(P2, 1, None))
        assert buf.effective.status is SlotStatus.ALL_NULL

    def test_null_then_value(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, None))
        buf.deposit(tok(P2, 1, 7))
        assert buf.effective.value == 7

    def test_retraction_via_higher_wave_null(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, 7))
        buf.deposit(tok(P1, 2, None))   # P1 retracts (predicate flipped)
        assert buf.effective.status is SlotStatus.EMPTY
        buf.deposit(tok(P2, 1, 8))
        assert buf.effective.value == 8

    def test_higher_wave_wins_between_producers(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 3, 30))
        buf.deposit(tok(P2, 1, 10))
        assert buf.effective.value == 30

    def test_tie_broken_by_producer_order(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, 10))
        buf.deposit(tok(P2, 1, 20))
        # Same wave: the later producer in the static list wins.
        assert buf.effective.value == 20

    def test_final_with_two_non_null_raises(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, 1, final=True))
        with pytest.raises(SimulationError, match="more than one"):
            buf.deposit(tok(P2, 1, 2, final=True))

    def test_final_one_value_one_null(self):
        buf = TokenBuffer([P1, P2])
        buf.deposit(tok(P1, 1, 5, final=True))
        buf.deposit(tok(P2, 1, None, final=True))
        assert buf.is_final()
        assert buf.effective.value == 5

    def test_three_producers(self):
        buf = TokenBuffer([P1, P2, P3])
        buf.deposit(tok(P1, 1, None, final=True))
        buf.deposit(tok(P3, 1, None, final=True))
        assert not buf.is_final()
        buf.deposit(tok(P2, 2, 9, final=True))
        assert buf.is_final()
        assert buf.effective.value == 9


@st.composite
def deposit_sequences(draw):
    """Per-producer monotone wave sequences with exactly one final non-null
    winner, shuffled into an arbitrary arrival order."""
    n_producers = draw(st.integers(min_value=1, max_value=3))
    producers = [("inst", i) for i in range(n_producers)]
    winner = draw(st.integers(min_value=0, max_value=n_producers - 1))
    tokens = []
    for i, producer in enumerate(producers):
        waves = draw(st.integers(min_value=1, max_value=3))
        for w in range(1, waves + 1):
            is_last = w == waves
            if i == winner:
                value = draw(st.integers(min_value=0, max_value=100)) \
                    if is_last else draw(st.one_of(
                        st.none(), st.integers(min_value=0, max_value=100)))
            else:
                value = None if is_last else draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=100)))
            tokens.append((producer, w, value, is_last))
    order = draw(st.permutations(tokens))
    return producers, list(order), tokens


class TestConvergenceProperty:
    @given(deposit_sequences())
    def test_any_arrival_order_converges(self, case):
        """Whatever the interleaving, once all final tokens are in, the
        buffer is final and its effective value is the winner's."""
        producers, order, tokens = case
        buf = TokenBuffer(producers)
        for producer, wave, value, is_last in order:
            buf.deposit(Token(0, DEST, producer, wave, value, is_last))
        assert buf.is_final()
        finals = {p: v for (p, w, v, last) in tokens if last}
        winners = [v for v in finals.values() if v is not None]
        if winners:
            assert buf.effective.status is SlotStatus.VALUE
            assert buf.effective.value == winners[0]
        else:
            assert buf.effective.status is SlotStatus.ALL_NULL


def _slot_state(buf):
    return (buf.status, buf.value, buf.producer, buf.wave, buf.final)


def _outcome(buf, token):
    try:
        return buf.deposit4(*token)
    except SimulationError as exc:
        return ("raised", str(exc))


#: One stream of deposits to a one-producer slot: small wave and value
#: ranges make rising, stale and repeated waves, NULLs, finality
#: upgrades and regressions, and a second value at one wave all common;
#: ``P2`` is the unknown producer, anywhere in the stream.
sole_streams = st.lists(
    st.tuples(st.sampled_from([P1, P1, P1, P2]),
              st.integers(min_value=0, max_value=4),
              st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
              st.booleans()),
    max_size=14)


class TestSoleBuffer:
    @given(sole_streams)
    def test_matches_the_general_path(self, stream):
        """A sole-producer buffer answers every deposit exactly as the
        general per-producer path does: same ``(changed, finality)``,
        same errors, same slot state afterwards."""
        sole, general = SoleBuffer(P1), TokenBuffer([P1])
        assert _slot_state(sole) == _slot_state(general)
        for token in stream:
            assert _outcome(sole, token) == _outcome(general, token), token
            assert _slot_state(sole) == _slot_state(general), token
            assert sole.effective.resolved == general.effective.resolved

    def test_stream_strategy_reaches_every_case(self):
        """The strategy above can draw each case the docstring names."""
        sole = SoleBuffer(P1)
        assert sole.deposit4(P1, 2, None, False) == (True, False)  # NULL
        assert sole.deposit4(P1, 1, 5, False) == (False, False)    # stale
        assert sole.deposit4(P1, 2, None, True) == (False, True)   # upgrade
        assert sole.deposit4(P1, 3, 4, False) == (True, False)     # regress
        assert sole.deposit4(P1, 3, 4, False) == (False, False)    # repeat
        with pytest.raises(SimulationError, match="two different"):
            sole.deposit4(P1, 3, 2, False)
        with pytest.raises(SimulationError, match="unknown producer"):
            sole.deposit4(P2, 4, 1, False)

    def test_reset_restores_the_empty_slot(self):
        for buf in (SoleBuffer(P1), TokenBuffer([P1, P2])):
            fresh = _slot_state(buf)
            buf.deposit4(P1, 1, 7, True)
            buf.reset()
            assert _slot_state(buf) == fresh
            assert buf.deposit4(P1, 1, 7, False) == (True, False)

    def test_new_buffer_picks_the_class(self):
        assert isinstance(new_buffer({P1: 0}), SoleBuffer)
        shared = {P1: 0, P2: 1}
        buf = new_buffer(shared)
        assert isinstance(buf, TokenBuffer) and buf._order is shared
        with pytest.raises(SimulationError, match="no static producers"):
            new_buffer({})
