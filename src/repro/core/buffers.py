"""Token buffers: the resolved state of one consumption point.

An operand slot may be targeted by several static producers (mutually
exclusive predicated instructions).  The buffer remembers the *latest*
token per producer and derives:

* the slot's **effective value** — the non-null token with the highest
  ``(wave, producer order)``, so re-executions supersede earlier waves and
  ties between producers resolve deterministically;
* **resolution** — a slot resolves as soon as any non-null token arrives
  (eager firing), or when every producer has declined (ALL_NULL);
* **finality** — the slot is final once every producer has sent a final
  token; a final slot with more than one non-null final token indicates a
  malformed program and raises.

This one data structure is what makes selective re-execution, predicate
nullification and the commit wave compose: deposits return whether the
effective state changed, and the owning node re-fires exactly when it did.

A buffer keeps its resolved state in its own fields, updated in place by
``deposit4``: ``status``, and while ``status`` is VALUE the effective
token's ``value``, ``producer`` and ``wave`` (``None``, ``None`` and
``-1`` otherwise), plus ``final``.  The per-event code reads those
fields.  Two classes share that layout:

* :class:`SoleBuffer` — a slot with one static producer, the target of
  nine deposits in ten.  Its fields mirror that producer's latest token,
  so it keeps no per-producer table.
* :class:`TokenBuffer` — the general path for any number of producers,
  with the latest token per producer in a dict.  It is also the
  reference the sole-producer class is property-tested against
  (``tests/test_buffers.py``).

A deposit is :meth:`~TokenBuffer.deposit4` with the token's fields as
scalar arguments ``(producer, wave, value, final)``.

:func:`buffer_spec` picks the class from the producer count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..errors import SimulationError
from .tokens import (STATUS_ALL_NULL, STATUS_EMPTY, STATUS_VALUE,
                     ProducerKey, TokenValue)


@dataclass(slots=True)
class _Latest:
    wave: int
    value: TokenValue
    final: bool


class _SlotFields:
    """The resolved-state fields both buffers share."""

    __slots__ = ("status", "value", "producer", "wave", "final")

    def reset(self) -> None:
        """Return to the empty slot: construction and arena recycling.

        Static wiring (the producer keys) survives, so a recycled buffer
        is indistinguishable from a freshly built one.
        """
        self.status = STATUS_EMPTY
        self.value = None
        self.producer = None
        self.wave = -1
        self.final = False


class TokenBuffer(_SlotFields):
    """Latest-token-per-producer buffer for one consumption point.

    The general path, for any number of static producers: every deposit
    re-derives the slot's fields from the per-producer table.  Slots
    with one producer run on :class:`SoleBuffer` instead; this class is
    the reference it is tested against.
    """

    __slots__ = ("_order", "_latest")

    def __init__(self, order: Dict[ProducerKey, int]):
        """Wrap a producer -> position map.

        Frames of the same block would rebuild identical producer-order
        maps for every slot; the frame template validates them once and
        hands the same dict to every instance — the buffer itself never
        mutates it.
        """
        self._order = order
        self._latest: Dict[ProducerKey, _Latest] = {}
        self.reset()

    # ------------------------------------------------------------------

    def deposit4(self, producer: ProducerKey, wave: int, value: TokenValue,
                 final: bool) -> Tuple[bool, bool]:
        """Absorb one token; return ``(changed, finality_changed)``.

        ``changed`` says the slot's status or effective value moved.
        Stale tokens (lower wave than already seen from the same
        producer) are dropped — they lost a race against a newer
        re-execution.
        """
        current = self._latest.get(producer)
        if current is None:
            # A producer in ``_latest`` was necessarily validated on its
            # first deposit, so the membership check is first-token-only.
            if producer not in self._order:
                raise SimulationError(
                    f"token from unknown producer {producer} "
                    f"(wave {wave}, value {value!r})")
            self._latest[producer] = _Latest(wave, value, final)
        elif wave < current.wave:
            return False, False
        elif wave == current.wave:
            if current.value != value:
                raise SimulationError(
                    f"producer {producer} sent two different values at "
                    f"wave {wave}")
            if current.final or not final:
                return False, False
            current.final = True
        else:
            # Higher wave from a known producer: update in place.
            current.wave = wave
            current.value = value
            current.final = final
        # Re-derive the resolved state in one pass over ``_latest``.
        order = self._order
        best: Optional[Tuple[int, int]] = None
        best_latest = None
        best_producer: Optional[ProducerKey] = None
        nulls = 0
        all_final = len(self._latest) == len(order)
        non_null_finals = 0
        for producer, latest in self._latest.items():
            if latest.final:
                if latest.value is not None:
                    non_null_finals += 1
            else:
                all_final = False
            if latest.value is None:
                nulls += 1
                continue
            key = (latest.wave, order[producer])
            if best is None or key > best:
                best = key
                best_latest = latest
                best_producer = producer
        if all_final and non_null_finals > 1:
            raise SimulationError(
                "slot finalised with more than one non-null producer "
                "(program has two unconditional writers)")
        old_status = self.status
        old_value = self.value
        was_final = self.final
        if best_producer is not None:
            status = STATUS_VALUE
            self.value = best_latest.value
            self.producer = best_producer
            self.wave = best_latest.wave
        else:
            status = STATUS_ALL_NULL if nulls == len(order) else STATUS_EMPTY
            self.value = None
            self.producer = None
            self.wave = -1
        self.status = status
        self.final = all_final
        return ((old_status is not status or old_value != self.value),
                all_final and not was_final)

    def reset(self) -> None:
        # The shared producer-order map is read-only and survives.
        self._latest.clear()
        _SlotFields.reset(self)


class SoleBuffer(_SlotFields):
    """A consumption point with exactly one static producer.

    Behaves exactly like ``TokenBuffer({key: 0})`` — same ``(changed,
    finality)`` answers, same errors, same fields after every deposit —
    without the per-producer dict: the resolved state *is* the producer's
    latest token.  EMPTY means no token has arrived; ``_seen`` holds the
    latest token's wave, which ``wave`` does not while the slot is
    ALL_NULL.
    """

    __slots__ = ("_key", "_seen")

    def __init__(self, key: ProducerKey):
        self._key = key
        self._seen = -1
        self.reset()

    def deposit4(self, producer: ProducerKey, wave: int, value: TokenValue,
                 final: bool) -> Tuple[bool, bool]:
        """:meth:`TokenBuffer.deposit4` for one producer."""
        if producer != self._key:
            raise SimulationError(
                f"token from unknown producer {producer} "
                f"(wave {wave}, value {value!r})")
        status = self.status
        if status is not STATUS_EMPTY:
            seen = self._seen
            if wave < seen:
                return False, False
            if wave == seen:
                if self.value != value:
                    raise SimulationError(
                        f"producer {producer} sent two different values "
                        f"at wave {wave}")
                if self.final or not final:
                    return False, False
                # Finality upgrade: only ``final`` flips.
                self.final = True
                return False, True
        finality = final and not self.final
        self._seen = wave
        self.final = final
        if value is None:
            if status is STATUS_ALL_NULL:
                return False, finality
            self.status = STATUS_ALL_NULL
            self.value = None
            self.producer = None
            self.wave = -1
            return True, finality
        changed = status is not STATUS_VALUE or self.value != value
        self.status = STATUS_VALUE
        self.value = value
        self.producer = producer
        self.wave = wave
        return changed, finality


#: Either buffer class; both carry the same resolved-state fields.
SlotBuffer = Union[TokenBuffer, SoleBuffer]


def buffer_spec(order: Dict[ProducerKey, int]
                ) -> Tuple[type, Union[ProducerKey, Dict[ProducerKey, int]]]:
    """``(class, argument)`` of the buffer for a slot whose producers are
    ``order``'s keys: ``class(argument)`` builds one.

    ``order`` is a (possibly shared, read-only) producer -> position map;
    a single producer gets a :class:`SoleBuffer` on its key.  Frame
    templates record the pair per slot, so a fresh frame builds each
    buffer with one call.
    """
    if len(order) == 1:
        (key,) = order
        return SoleBuffer, key
    if not order:
        raise SimulationError("token buffer with no static producers")
    return TokenBuffer, order
