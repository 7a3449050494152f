"""Operand-routing mesh network.

Messages are point-to-point with latency proportional to Manhattan distance
plus contention: each destination accepts at most ``port_bandwidth``
messages per cycle; excess deliveries slip to following cycles in arrival
order.  The same fabric carries speculative waves, NULL tokens, LSQ traffic
and the commit wave — so DSRE's extra traffic has a measurable cost, which
experiment E6 quantifies.

This module holds the network's state; :class:`~repro.uarch.processor
.Processor` applies its rules.  ``Processor._fan_out`` and
``Processor._push`` inject flat entries (:mod:`repro.uarch.specialize`)
that arrive ``now + max(1, routed)``, and the delivery sweep in
``Processor.run`` pops them under the port rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .config import Coord


@dataclass(slots=True)
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    final_sent: int = 0         # commit-wave messages
    null_sent: int = 0          # NULL-token messages
    contention_slips: int = 0


class OperandNetwork:
    """The mesh's in-flight entries, port counters and statistics."""

    def __init__(self):
        self.stats = NetworkStats()
        #: Current cycle; the owner advances this before injecting.
        self.now = 0
        #: Min-heap of ``(arrive, seq, entry)``; ``seq`` is the shared
        #: send counter, so equal arrivals deliver in send order.
        self._heap: List[Tuple[int, int, tuple]] = []
        self._seq = 0
        #: Per-destination deliveries in the cycle ``_port_cycle``; only
        #: the current cycle's counters exist — the delivery sweep
        #: expires them wholesale when it observes a new cycle.
        self._port_use: Dict[Coord, int] = {}
        self._port_cycle = -1
