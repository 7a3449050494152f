"""Whole-program container: blocks + initial data segments.

Control transfers between blocks by label.  The reserved label ``@halt``
terminates execution.  Data segments describe the initial memory image; the
functional interpreter and the timing simulator both start from the same
image, which is how final-state cross-validation works.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import IsaError
from .block import Block

#: Branching to this label halts the program.
HALT_LABEL = "@halt"


@dataclass
class DataSegment:
    """A named chunk of initialised memory."""

    name: str
    base: int
    data: bytes

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    @classmethod
    def from_words(cls, name: str, base: int,
                   words: Iterable[int]) -> "DataSegment":
        """Build a segment of little-endian 64-bit words."""
        payload = b"".join(struct.pack("<Q", w & (2 ** 64 - 1)) for w in words)
        return cls(name, base, payload)


class Program:
    """A validated collection of blocks with an entry point and data image."""

    def __init__(self, entry: str,
                 blocks: Optional[Sequence[Block]] = None,
                 segments: Optional[Sequence[DataSegment]] = None):
        self.entry = entry
        self.blocks: Dict[str, Block] = {}
        self.segments: List[DataSegment] = list(segments or [])
        for block in blocks or []:
            self.add_block(block)

    def add_block(self, block: Block) -> None:
        if block.name in self.blocks:
            raise IsaError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block

    def add_segment(self, segment: DataSegment) -> None:
        self.segments.append(segment)

    def block(self, name: str) -> Block:
        try:
            return self.blocks[name]
        except KeyError:
            raise IsaError(f"no block named {name!r}") from None

    def validate(self) -> None:
        """Validate every block plus whole-program invariants."""
        if self.entry not in self.blocks:
            raise IsaError(f"entry block {self.entry!r} does not exist")
        for block in self.blocks.values():
            block.validate()
            for succ in block.successors:
                if succ != HALT_LABEL and succ not in self.blocks:
                    raise IsaError(
                        f"block {block.name!r} branches to missing "
                        f"block {succ!r}")
        self._validate_segments()

    def _validate_segments(self) -> None:
        spans = sorted((s.base, s.end, s.name) for s in self.segments)
        for (b1, e1, n1), (b2, e2, n2) in zip(spans, spans[1:]):
            if b2 < e1:
                raise IsaError(
                    f"data segments {n1!r} and {n2!r} overlap "
                    f"([{b1:#x},{e1:#x}) vs [{b2:#x},{e2:#x}))")
        for s in self.segments:
            if s.base < 0:
                raise IsaError(f"segment {s.name!r} has negative base")

    def total_static_instructions(self) -> int:
        """Static instruction count across all blocks."""
        return sum(len(b) for b in self.blocks.values())

    def __str__(self) -> str:
        lines = [f".entry {self.entry}"]
        for seg in self.segments:
            lines.append(f".data {seg.name} base={seg.base:#x} "
                         f"len={len(seg.data)}")
        for block in self.blocks.values():
            lines.append(str(block))
        return "\n".join(lines)
