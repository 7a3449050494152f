"""Instruction and target representations.

An EDGE instruction does not name source registers; it names the *consumers*
of its result.  A :class:`Target` identifies either an operand slot of
another instruction in the same block or one of the block's register-write
slots.  Branch results are routed implicitly to the block's exit unit and
store results to the LSQ, so ``BRO`` and ``STORE`` carry no targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .opcodes import Opcode, op_info


class Slot(enum.Enum):
    """Operand slots of an instruction."""

    OP0 = 0
    OP1 = 1
    PRED = 2


#: The members bound once as module constants (the same objects, so
#: ``is`` tests are unchanged): per-event code reads a global instead of
#: paying an attribute lookup on the enum class (docs/PERFORMANCE.md §12).
SLOT_OP0 = Slot.OP0
SLOT_OP1 = Slot.OP1
SLOT_PRED = Slot.PRED


class TargetKind(enum.Enum):
    """What a :class:`Target` points at."""

    INST = "inst"     # an operand slot of an instruction in the same block
    WRITE = "write"   # one of the block's register-write slots


#: Bound once like the ``SLOT_*`` constants above.
TARGET_INST = TargetKind.INST
TARGET_WRITE = TargetKind.WRITE


@dataclass(frozen=True)
class Target:
    """A direct dataflow target: where a producer's result token is sent."""

    kind: TargetKind
    index: int                 # instruction index or write-slot index
    slot: Slot = Slot.OP0      # meaningful only for ``INST`` targets

    def __str__(self) -> str:
        if self.kind is TargetKind.WRITE:
            return f"W{self.index}"
        return f"I{self.index}.{self.slot.name.lower()}"


@dataclass
class Instruction:
    """One static EDGE instruction.

    Attributes:
        opcode: the operation.
        targets: consumers of the result token.
        imm: immediate operand.  For two-operand opcodes that allow it, the
            immediate replaces ``OP1``; for ``MOVI`` it is the generated
            value; for ``LOAD``/``STORE`` it is a signed byte displacement
            added to the address operand.
        pred: predication sense. ``None`` means unpredicated; ``True`` fires
            when the PRED operand is non-zero, ``False`` when it is zero.
            A predicate mismatch makes the instruction emit NULL tokens.
        lsid: load/store ID for memory opcodes (sequential memory order
            within the block); ``None`` otherwise.
        width: access width in bytes for memory opcodes (1, 2, 4 or 8).
        branch_target: successor block label for ``BRO``.
    """

    opcode: Opcode
    targets: List[Target] = field(default_factory=list)
    imm: Optional[int] = None
    pred: Optional[bool] = None
    lsid: Optional[int] = None
    width: int = 8
    branch_target: Optional[str] = None

    def required_value_slots(self) -> Tuple[Slot, ...]:
        """The value slots that must receive a token before firing."""
        arity = op_info(self.opcode).arity
        if self.imm is not None and self.opcode is not Opcode.MOVI \
                and self.opcode not in (Opcode.LOAD, Opcode.STORE):
            arity -= 1
        if arity <= 0:
            return ()
        if arity == 1:
            return (Slot.OP0,)
        return (Slot.OP0, Slot.OP1)

    def required_slots(self) -> Tuple[Slot, ...]:
        """All slots (values + predicate) that must be filled before firing."""
        slots = self.required_value_slots()
        if self.pred is not None:
            return slots + (Slot.PRED,)
        return slots

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRO

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.pred is not None:
            parts[0] += "_t" if self.pred else "_f"
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.lsid is not None:
            parts.append(f"[lsid={self.lsid},w={self.width}]")
        if self.branch_target is not None:
            parts.append(f"->{self.branch_target}")
        if self.targets:
            parts.append("=> " + ", ".join(str(t) for t in self.targets))
        return " ".join(parts)
