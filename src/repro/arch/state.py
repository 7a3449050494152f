"""Architectural state: register file + memory."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..isa.limits import NUM_REGS
from ..isa.program import DataSegment, Program
from ..isa.values import WORD_MASK, to_unsigned
from .memory import SparseMemory


class ArchState:
    """The committed architectural state of the machine.

    Registers hold 64-bit carrier values.  ``regs`` may be seeded with
    initial values (kernels receive their parameters in registers).
    """

    def __init__(self, segments: Iterable[DataSegment] = (),
                 initial_regs: Optional[Dict[int, int]] = None):
        self.regs: List[int] = [0] * NUM_REGS
        self.memory = SparseMemory(segments)
        for reg, value in (initial_regs or {}).items():
            self.set_reg(reg, value)

    @classmethod
    def for_program(cls, program: Program,
                    initial_regs: Optional[Dict[int, int]] = None
                    ) -> "ArchState":
        return cls(program.segments, initial_regs)

    def get_reg(self, reg: int) -> int:
        return self.regs[reg]

    def set_reg(self, reg: int, value: int) -> None:
        self.regs[reg] = to_unsigned(value) & WORD_MASK

    def copy(self) -> "ArchState":
        clone = ArchState()
        clone.regs = list(self.regs)
        clone.memory = self.memory.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return (self.regs == other.regs
                and self.memory.same_contents(other.memory))

    def __hash__(self):  # states are mutable; identity hashing only
        return id(self)
