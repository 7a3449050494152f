"""Execution tiles.

Each tile owns the instructions statically mapped to it (from every
in-flight frame), issues up to ``issue_width_per_tile`` ready nodes per
cycle — oldest frame first, which guarantees forward progress for the
commit wave — and models functional-unit occupancy.

This module holds a tile's state; ``Processor._enqueue`` pushes ready
entries and the tile walk in ``Processor.run`` pops them.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.node import InstructionNode
from .config import Coord


class ExecTile:
    """One ALU tile of the grid: its ready and executing heaps."""

    def __init__(self, coord: Coord, issue_width: int):
        self.coord = coord
        self.issue_width = issue_width
        #: Min-heap of (frame_seq, inst_index, push_seq, node, life)
        #: candidates.  The trailing ``life`` tags the node generation the
        #: entry was pushed under: arena recycling reuses node objects, so
        #: an entry whose life no longer matches ``node.life`` belongs to
        #: a previous dynamic instance and is skipped lazily on pop —
        #: never scrubbed, exactly like dead-frame entries.
        self._ready: List[Tuple[int, int, int, InstructionNode, int]] = []
        self._push_seq = 0
        #: node -> life of its pending ready entry: the enqueue dedup.
        #: The life value keeps a stale entry's pop from deleting the
        #: *current* life's membership.
        self._queued: dict = {}
        #: Min-heap of (completion_cycle, push_seq, node, life).
        self._executing: List[Tuple[int, int, InstructionNode, int]] = []
