"""Execution tiles.

Each tile owns the instructions statically mapped to it (from every
in-flight frame), issues up to ``issue_width_per_tile`` ready nodes per
cycle — oldest frame first, which guarantees forward progress for the
commit wave — and models functional-unit occupancy.

``Processor.run`` walks the tiles' heaps inline with the same pop order
and bookkeeping; the methods here state the rules for the unit tests, and
a rule changed here must change there too.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..core.node import InstructionNode
from .config import Coord


class ExecTile:
    """One ALU tile of the grid."""

    def __init__(self, index: int, coord: Coord, issue_width: int):
        self.index = index
        self.coord = coord
        self.issue_width = issue_width
        #: Min-heap of (frame_seq, inst_index, push_seq, node, life)
        #: candidates.  The trailing ``life`` tags the node generation the
        #: entry was pushed under: arena recycling reuses node objects, so
        #: an entry whose life no longer matches ``node.life`` belongs to
        #: a previous dynamic instance and is skipped lazily on pop —
        #: never scrubbed, exactly like dead-frame entries always were.
        self._ready: List[Tuple[int, int, int, InstructionNode, int]] = []
        self._push_seq = 0
        #: node -> life of its pending ready entry.  With distinct node
        #: objects this degenerates to the old identity set; with recycled
        #: nodes the life value keeps a stale entry's pop from deleting
        #: the *current* life's membership.
        self._queued: dict = {}
        #: Min-heap of (completion_cycle, push_seq, node, life).
        self._executing: List[Tuple[int, int, InstructionNode, int]] = []

    # ------------------------------------------------------------------

    def enqueue(self, seq: int, node: InstructionNode) -> None:
        """Offer a node for (re-)issue; duplicates are coalesced.

        The dedup key is the node object *plus its current life*: exactly
        one live node exists per (frame_uid, index), and a recycled node's
        previous-life entries no longer count as membership.
        """
        queued = self._queued
        life = node.life
        if queued.get(node) == life:
            return
        queued[node] = life
        self._push_seq += 1
        heapq.heappush(self._ready,
                       (seq, node.index, self._push_seq, node, life))

    def issue_ready(self, now: int, latency_fn,
                    alive_fn) -> List[InstructionNode]:
        """Issue up to ``issue_width`` nodes; returns the issued nodes.

        ``latency_fn(node) -> int`` gives the FU latency;
        ``alive_fn(frame_uid) -> bool`` filters nodes of squashed frames.
        """
        issued: List[InstructionNode] = []
        queued = self._queued
        while self._ready and len(issued) < self.issue_width:
            seq, idx, push, node, life = heapq.heappop(self._ready)
            if life != node.life:
                continue                  # stale entry of a recycled node
            if queued.get(node) == life:
                del queued[node]
            if not alive_fn(node.frame_uid):
                continue
            if not node.can_issue():
                continue
            node._begin_issued()
            done = now + latency_fn(node)
            self._push_seq += 1
            heapq.heappush(self._executing,
                           (done, self._push_seq, node, node.life))
            issued.append(node)
        return issued

    def pop_completed(self, now: int) -> List[InstructionNode]:
        """Nodes whose FU pass finishes at or before ``now``."""
        done: List[InstructionNode] = []
        while self._executing and self._executing[0][0] <= now:
            _, _, node, life = heapq.heappop(self._executing)
            if life == node.life:
                done.append(node)
        return done

    # ------------------------------------------------------------------

    def next_completion(self) -> Optional[int]:
        return self._executing[0][0] if self._executing else None

    @property
    def has_ready(self) -> bool:
        return bool(self._ready)

    @property
    def busy(self) -> bool:
        return bool(self._ready or self._executing)
