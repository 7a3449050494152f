"""Wave-tagged operand tokens — the currency of the DSRE protocol.

Every value that moves through the machine is a :class:`Token`:

* ``wave`` is the producer's execution count.  A producer that re-executes
  (because one of *its* inputs changed) emits tokens with a higher wave;
  consumers ignore stale waves, so out-of-order arrival is harmless.
* ``value is None`` encodes a **NULL token**: the producer was predicated
  off and formally declines to produce.  NULL tokens are what let a
  consumer's operand slot resolve when several mutually-exclusive
  predicated producers target it.
* ``final`` marks a **commit-wave** token: the producer guarantees this is
  the architecturally-correct value (or null).  A frame commits when all of
  its outputs have received final tokens — the commit wave "propagating
  behind" the speculative waves of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..isa.instruction import Slot

#: A producer inside a frame: ``("read", i)`` or ``("inst", i)``.
ProducerKey = Tuple[str, int]

#: Where a token is consumed:
#:   ("inst", index, slot)  — an instruction operand slot
#:   ("write", index, None) — a register write slot
#:   ("branch", 0, None)    — the frame's branch unit
DestKey = Tuple[str, int, Optional[Slot]]

#: Token payloads are 64-bit carrier ints, branch-target labels, or None
#: (NULL token).
TokenValue = Union[int, str, None]


def inst_dest(index: int, slot: Slot) -> DestKey:
    return ("inst", index, slot)


def write_dest(index: int) -> DestKey:
    return ("write", index, None)


BRANCH_DEST: DestKey = ("branch", 0, None)


class SlotStatus(enum.Enum):
    """Resolution status of an operand slot."""

    EMPTY = "empty"          # no usable token yet
    VALUE = "value"          # at least one non-null token available
    ALL_NULL = "all_null"    # every static producer declined


#: The members bound once as module constants (docs/PERFORMANCE.md §12).
STATUS_EMPTY = SlotStatus.EMPTY
STATUS_VALUE = SlotStatus.VALUE
STATUS_ALL_NULL = SlotStatus.ALL_NULL


@dataclass(slots=True)
class Token:
    """One operand delivery.

    ``frame_uid`` names the consuming frame (frame uids are monotonically
    increasing and never reused, so tokens addressed to a squashed frame are
    simply dropped in flight).
    """

    frame_uid: int
    dest: DestKey
    producer: ProducerKey
    wave: int
    value: TokenValue
    final: bool = False

    def __str__(self) -> str:
        val = "NULL" if self.value is None else self.value
        flag = "F" if self.final else "s"
        return (f"<tok f{self.frame_uid} {self.producer}->{self.dest} "
                f"w{self.wave}:{val}:{flag}>")
