"""Wave-tagged operand tokens — the currency of the DSRE protocol.

Every value that moves through the machine is a token, carried as a flat
entry on the operand network (the entry layouts are tabulated in
:mod:`repro.uarch.specialize`).  An operand token names its consuming
frame and slot and carries ``(producer, wave, value, final)``:

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

Frame uids are monotonically increasing and never reused, so tokens
addressed to a squashed frame are simply dropped on delivery.
"""

from __future__ import annotations

import enum
from typing import Tuple, Union

#: A producer inside a frame: ``("read", i)`` or ``("inst", i)``.
ProducerKey = Tuple[str, int]

#: Token payloads are 64-bit carrier ints, branch-target labels, or None
#: (NULL token).
TokenValue = Union[int, str, None]


class SlotStatus(enum.Enum):
    """Resolution status of an operand slot."""

    EMPTY = "empty"          # no usable token yet
    VALUE = "value"          # at least one non-null token available
    ALL_NULL = "all_null"    # every static producer declined


#: The members bound once as module constants (docs/PERFORMANCE.md §12).
STATUS_EMPTY = SlotStatus.EMPTY
STATUS_VALUE = SlotStatus.VALUE
STATUS_ALL_NULL = SlotStatus.ALL_NULL
