"""Multi-producer token buffers.

An operand slot may be targeted by several static producers (mutually
exclusive predicated instructions).  The buffer remembers the *latest* token
per producer and derives:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .tokens import (STATUS_ALL_NULL, STATUS_EMPTY, STATUS_VALUE,
                     ProducerKey, SlotStatus, Token, TokenValue)


@dataclass(slots=True)
class _Latest:
    wave: int
    value: TokenValue
    final: bool


class Effective:
    """Snapshot of a slot's resolved state.

    Never mutated: a buffer replaces its snapshot on every change.  A
    plain ``__slots__`` class, not a frozen dataclass, whose generated
    ``__init__`` pays one ``object.__setattr__`` per field.  Nothing
    hashes or compares snapshots; issue signatures hold ``(producer,
    wave)`` pairs (``InstructionNode.current_signature``).
    """

    __slots__ = ("status", "value", "producer", "wave")

    def __init__(self, status: SlotStatus, value: TokenValue = None,
                 producer: Optional[ProducerKey] = None, wave: int = -1):
        self.status = status
        self.value = value
        self.producer = producer
        self.wave = wave

    @property
    def resolved(self) -> bool:
        return self.status is not STATUS_EMPTY


EMPTY_EFFECTIVE = Effective(STATUS_EMPTY)


class TokenBuffer:
    """Latest-token-per-producer buffer for one consumption point."""

    __slots__ = ("_order", "_latest", "_effective", "_final")

    def __init__(self, producers: Sequence[ProducerKey]):
        if not producers:
            raise SimulationError("token buffer with no static producers")
        self._order: Dict[ProducerKey, int] = {
            p: n for n, p in enumerate(producers)}
        self._latest: Dict[ProducerKey, _Latest] = {}
        self._effective: Effective = EMPTY_EFFECTIVE
        #: Cached finality; ``_latest`` only mutates inside ``deposit``,
        #: which refreshes this after every change.
        self._final = False

    @classmethod
    def from_shared(cls, order: Dict[ProducerKey, int]) -> "TokenBuffer":
        """Construct around a prebuilt (and shared, read-only) order map.

        Frames of the same block rebuild identical producer-order maps for
        every slot; the frame template validates them once and hands the
        same dict to every instance — the buffer itself never mutates it.
        """
        buf = cls.__new__(cls)
        buf._order = order
        buf._latest = {}
        buf._effective = EMPTY_EFFECTIVE
        buf._final = False
        return buf

    # ------------------------------------------------------------------

    def deposit(self, token: Token) -> Tuple[bool, bool]:
        """Absorb a token; return ``(effective_changed, finality_changed)``."""
        return self.deposit4(token.producer, token.wave, token.value,
                             token.final)

    def deposit4(self, producer: ProducerKey, wave: int, value: TokenValue,
                 final: bool) -> Tuple[bool, bool]:
        """Scalar-argument :meth:`deposit` — the processor carries token
        fields as flat tuple slots, so the buffer absorbs them without a
        Token shell.  Semantics are identical: stale tokens
        (lower wave than already seen from the same producer) are dropped —
        they lost a race against a newer re-execution.
        """
        current = self._latest.get(producer)
        was_final = self._final
        if current is None:
            # A producer in ``_latest`` was necessarily validated on its
            # first deposit, so the membership check is first-token-only.
            if producer not in self._order:
                raise SimulationError(
                    f"token from unknown producer {producer} "
                    f"(wave {wave}, value {value!r})")
            current = self._latest[producer] = _Latest(wave, value, final)
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
            if len(self._order) == 1:
                # Finality upgrade on the sole producer: the effective
                # snapshot (status/value/producer/wave) is untouched —
                # only ``_final`` flips.  Skip the refresh entirely.
                self._final = True
                return False, not was_final
        else:
            # Higher wave from a known producer: update in place.
            current.wave = wave
            current.value = value
            current.final = final
        # Refresh ``_effective`` and ``_final`` in one pass over ``_latest``
        # (inline: deposit is the only mutation point and the hottest call
        # in the token path).
        order = self._order
        if len(order) == 1:
            # Single static producer (the common case): the effective
            # state mirrors its latest token directly.
            old = self._effective
            if current.value is not None:
                effective = Effective(STATUS_VALUE, current.value,
                                      producer, current.wave)
            else:
                effective = Effective(STATUS_ALL_NULL)
            self._effective = effective
            self._final = current.final
            return ((old.status is not effective.status
                     or old.value != effective.value),
                    current.final and not was_final)
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
        old = self._effective
        if best_producer is not None:
            effective = Effective(
                STATUS_VALUE, best_latest.value, best_producer,
                best_latest.wave)
        elif nulls == len(order):
            effective = Effective(STATUS_ALL_NULL)
        else:
            effective = EMPTY_EFFECTIVE
        if all_final and non_null_finals > 1:
            raise SimulationError(
                "slot finalised with more than one non-null producer "
                "(program has two unconditional writers)")
        self._effective = effective
        self._final = all_final
        return ((old.status is not effective.status
                 or old.value != effective.value),
                all_final and not was_final)

    def reset(self) -> None:
        """Return to the just-constructed state (arena recycling).

        The shared producer-order map is read-only and survives; only the
        per-dynamic-instance token state is dropped, so a recycled buffer
        is indistinguishable from a freshly built one.
        """
        self._latest.clear()
        self._effective = EMPTY_EFFECTIVE
        self._final = False

    # ------------------------------------------------------------------

    @property
    def effective(self) -> Effective:
        return self._effective

    @property
    def resolved(self) -> bool:
        return self._effective.resolved

    def is_final(self) -> bool:
        """True when every producer has committed (sent a final token)."""
        return self._final

    def final_effective(self) -> Effective:
        """The effective value once final (callers must check is_final)."""
        return self._effective

    def producers(self) -> List[ProducerKey]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._order)
