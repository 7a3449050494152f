"""Operand-routing mesh network.

Messages are point-to-point with latency proportional to Manhattan distance
plus contention: each destination accepts at most ``port_bandwidth``
messages per cycle; excess deliveries slip to following cycles in arrival
order.  The same fabric carries speculative waves, NULL tokens, LSQ traffic
and the commit wave — so DSRE's extra traffic has a measurable cost, which
experiment E6 quantifies.

``Processor.run`` applies these send and delivery rules inline to the
flat entries of :mod:`repro.uarch.specialize`; the methods here state
them for the unit tests, and a rule changed here must change there too.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .config import Coord, MachineConfig


class MsgKind(enum.Enum):
    TOKEN = "token"            # operand token to a frame destination
    LOAD_REQ = "load_req"      # load address -> LSQ
    STORE_UPD = "store_upd"    # store address/data -> LSQ
    LOAD_RESP = "load_resp"    # LSQ value -> load node
    REG_FWD = "reg_fwd"        # cross-frame register forward -> control tile


@dataclass(slots=True)
class Message:
    kind: MsgKind
    dest: Coord
    payload: Any
    #: True for commit-wave (final) traffic; tracked separately in stats.
    final: bool = False


@dataclass(slots=True)
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    final_sent: int = 0         # commit-wave messages
    null_sent: int = 0          # NULL-token messages
    total_latency: int = 0
    contention_slips: int = 0


class OperandNetwork:
    """Mesh with per-destination port bandwidth."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.stats = NetworkStats()
        #: Current cycle; the owner advances this before injecting.
        self.now = 0
        self._heap: List[Tuple[int, int, Message]] = []
        self._seq = 0
        #: Per-destination deliveries in the cycle ``_port_cycle``; only
        #: the current cycle's counters exist — they are expired wholesale
        #: whenever ``deliver_due`` observes a new ``now``.
        self._port_use: Dict[Coord, int] = {}
        self._port_cycle = -1
        #: (src, dest) -> routed latency; the coordinate set is tiny and
        #: static, so this saturates almost immediately.
        self._route_cache: Dict[Tuple[Coord, Coord], int] = {}

    def send(self, src: Coord, msg: Message, extra_latency: int = 0) -> None:
        """Inject a message at the current cycle."""
        key = (src, msg.dest)
        routed = self._route_cache.get(key)
        if routed is None:
            routed = self.config.route_latency(src, msg.dest)
            self._route_cache[key] = routed
        latency = routed + extra_latency
        arrive = self.now + max(1, latency)
        self.stats.sent += 1
        if msg.final:
            self.stats.final_sent += 1
        self._seq += 1
        heapq.heappush(self._heap, (arrive, self._seq, msg))

    def deliver_due(self, now: int) -> List[Message]:
        """Pop all messages that arrive at cycle ``now`` (respecting ports)."""
        self.now = now
        if now != self._port_cycle:
            # Past-cycle counters can never be consulted again; expire
            # them in bulk instead of sweeping a growing dict.
            self._port_use.clear()
            self._port_cycle = now
        out: List[Message] = []
        requeue: List[Tuple[int, int, Message]] = []
        bandwidth = self.config.port_bandwidth
        port_use = self._port_use
        while self._heap and self._heap[0][0] <= now:
            arrive, seq, msg = heapq.heappop(self._heap)
            used = port_use.get(msg.dest, 0)
            if used >= bandwidth:
                self.stats.contention_slips += 1
                requeue.append((now + 1, seq, msg))
                continue
            port_use[msg.dest] = used + 1
            self.stats.delivered += 1
            self.stats.total_latency += now - (arrive - 1)
            out.append(msg)
        for item in requeue:
            heapq.heappush(self._heap, item)
        return out

    def next_event_cycle(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    @property
    def in_flight(self) -> int:
        return len(self._heap)
