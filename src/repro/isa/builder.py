"""Builder DSL for constructing EDGE blocks and programs in Python.

The builder hides target bookkeeping: writing

    pb = ProgramBuilder(entry="main")
    b = pb.block("main")
    i = b.read(1)
    j = b.add(i, imm=1)
    b.write(1, j)
    b.branch("@halt")
    program = pb.build()

produces a validated :class:`~repro.isa.program.Program`.  Values are
:class:`Wire` handles; passing a wire as an operand appends a direct target
to its producer(s).  Predication is expressed with ``pred=p`` (fire when the
predicate wire is true) or ``pred=(p, False)`` (fire when false).

The builder also performs *fan-out expansion*: EDGE instructions encode a
bounded number of targets, so producers that feed more consumers than the
limit get a tree of ``MOV`` instructions inserted automatically at build
time, exactly as an EDGE compiler would emit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import IsaError
from .block import Block, ProducerId, ReadSlot, WriteSlot
from .instruction import (SLOT_OP0, SLOT_OP1, SLOT_PRED, TARGET_INST,
                          Instruction, Slot, Target, TargetKind)
from .limits import DEFAULT_LIMITS, BlockLimits
from .opcodes import OP_INFO, Opcode
from .program import DataSegment, Program
from .values import to_unsigned

#: Maximum direct targets per producer before MOV fan-out trees are inserted.
DEFAULT_MAX_TARGETS = 4

#: ``pred=`` argument: a wire (true sense) or an explicit (wire, sense) pair.
PredArg = Union["Wire", Tuple["Wire", bool], None]


@dataclass(frozen=True)
class Wire:
    """A handle to a value flowing in a block under construction.

    A wire usually has a single producer; wires returned by
    :meth:`BlockBuilder.select` have two mutually-exclusive predicated
    producers (exactly one delivers a non-null token at run time).
    """

    owner: "BlockBuilder"
    producers: Tuple[ProducerId, ...]


class BlockBuilder:
    """Accumulates one block's reads, instructions and writes."""

    def __init__(self, program: "ProgramBuilder", name: str,
                 limits: BlockLimits = DEFAULT_LIMITS,
                 max_targets: int = DEFAULT_MAX_TARGETS):
        self._program = program
        self.name = name
        self.limits = limits
        self.max_targets = max_targets
        self._reads: List[ReadSlot] = []
        self._read_by_reg: Dict[int, int] = {}
        self._writes: List[WriteSlot] = []
        self._write_by_reg: Dict[int, int] = {}
        self._insts: List[Instruction] = []
        self._next_lsid = 0
        self._const_cache: Dict[int, Wire] = {}

    # ------------------------------------------------------------------
    # Core plumbing
    # ------------------------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Instructions emitted so far (before fan-out expansion)."""
        return len(self._insts)

    @property
    def memory_op_count(self) -> int:
        """Memory operations emitted so far (the next free LSID)."""
        return self._next_lsid

    def _wire(self, producer: ProducerId) -> Wire:
        return Wire(self, (producer,))

    def _connect(self, wire: Wire, target: Target) -> None:
        if wire.owner is not self:
            raise IsaError(
                f"wire from block {wire.owner.name!r} used in block "
                f"{self.name!r}; wires cannot cross block boundaries")
        for kind, idx in wire.producers:
            producer = self._reads[idx] if kind == "read" \
                else self._insts[idx]
            producer.targets.append(target)

    def _emit(self, inst: Instruction,
              operands: Sequence[Optional[Wire]],
              pred: PredArg) -> Wire:
        pred_wire, sense = _split_pred(pred)
        inst.pred = sense
        idx = len(self._insts)
        self._insts.append(inst)
        for slot, operand in zip((SLOT_OP0, SLOT_OP1), operands):
            if operand is not None:
                self._connect(operand, _inst_target(idx, slot))
        if pred_wire is not None:
            self._connect(pred_wire, _inst_target(idx, SLOT_PRED))
        return Wire(self, (("inst", idx),))

    def op(self, opcode: Opcode, *operands: Wire,
           imm: Optional[int] = None, pred: PredArg = None) -> Wire:
        """Emit a generic compute instruction.

        ``imm`` replaces the final operand for opcodes that allow it.
        """
        info = OP_INFO[opcode]
        if opcode in (Opcode.LOAD, Opcode.STORE, Opcode.BRO):
            raise IsaError("use load()/store()/branch() for memory/branch ops")
        expected = info.arity - (1 if imm is not None and info.allows_imm
                                 else 0)
        if opcode is Opcode.MOVI:
            expected = 0
        if len(operands) != expected:
            raise IsaError(
                f"{opcode.value} expects {expected} wire operand(s), "
                f"got {len(operands)}")
        inst = Instruction(opcode, imm=to_unsigned(imm) if imm is not None
                           and opcode is Opcode.MOVI else imm)
        return self._emit(inst, operands, pred)

    # ------------------------------------------------------------------
    # Block interface: reads, writes, memory, branches
    # ------------------------------------------------------------------

    def read(self, reg: int) -> Wire:
        """Read architectural register ``reg`` (deduplicated per block)."""
        if reg in self._read_by_reg:
            return self._wire(("read", self._read_by_reg[reg]))
        idx = len(self._reads)
        self._reads.append(ReadSlot(reg))
        self._read_by_reg[reg] = idx
        return self._wire(("read", idx))

    def write(self, reg: int, value: Wire) -> None:
        """Write ``value`` to architectural register ``reg`` at commit.

        May be called several times for the same register with predicated
        producers; exactly one must deliver a non-null token at run time.
        """
        if reg in self._write_by_reg:
            idx = self._write_by_reg[reg]
        else:
            idx = len(self._writes)
            self._writes.append(WriteSlot(reg))
            self._write_by_reg[reg] = idx
        self._connect(value, Target(TargetKind.WRITE, idx))

    def load(self, addr: Wire, offset: int = 0, width: int = 8,
             pred: PredArg = None, lsid: Optional[int] = None) -> Wire:
        """Emit a load; LSIDs default to program (call) order."""
        inst = Instruction(Opcode.LOAD, imm=offset, width=width,
                           lsid=self._take_lsid(lsid))
        return self._emit(inst, [addr], pred)

    def store(self, addr: Wire, value: Wire, offset: int = 0, width: int = 8,
              pred: PredArg = None, lsid: Optional[int] = None) -> None:
        """Emit a store; LSIDs default to program (call) order."""
        inst = Instruction(Opcode.STORE, imm=offset, width=width,
                           lsid=self._take_lsid(lsid))
        self._emit(inst, [addr, value], pred)

    def branch(self, label: str, pred: PredArg = None) -> None:
        """Emit a branch to ``label`` (``"@halt"`` terminates the program)."""
        inst = Instruction(Opcode.BRO, branch_target=label)
        self._emit(inst, [], pred)

    def branch_if(self, pred_wire: Wire, then_label: str,
                  else_label: str) -> None:
        """The common two-way exit: branch on a predicate wire."""
        self.branch(then_label, pred=(pred_wire, True))
        self.branch(else_label, pred=(pred_wire, False))

    def _take_lsid(self, explicit: Optional[int]) -> int:
        if explicit is not None:
            self._next_lsid = max(self._next_lsid, explicit + 1)
            return explicit
        lsid = self._next_lsid
        self._next_lsid += 1
        return lsid

    # ------------------------------------------------------------------
    # Convenience opcode wrappers
    # ------------------------------------------------------------------

    def movi(self, value: int) -> Wire:
        """Generate a constant (not cached; see :meth:`const`)."""
        return self.op(Opcode.MOVI, imm=value)

    def const(self, value: int) -> Wire:
        """Generate a constant, reusing a single MOVI per distinct value."""
        key = to_unsigned(value)
        if key not in self._const_cache:
            self._const_cache[key] = self.movi(value)
        return self._const_cache[key]

    def select(self, pred_wire: Wire, if_true: Wire, if_false: Wire) -> Wire:
        """Dataflow select: a pair of predicated MOVs, one of which fires."""
        t = self.op(Opcode.MOV, if_true, pred=(pred_wire, True))
        f = self.op(Opcode.MOV, if_false, pred=(pred_wire, False))
        return Wire(self, t.producers + f.producers)

    def add(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.ADD, a, b, imm, pred)

    def sub(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.SUB, a, b, imm, pred)

    def mul(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.MUL, a, b, imm, pred)

    def div(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.DIV, a, b, imm, pred)

    def mod(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.MOD, a, b, imm, pred)

    def and_(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.AND, a, b, imm, pred)

    def or_(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.OR, a, b, imm, pred)

    def xor(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.XOR, a, b, imm, pred)

    def shl(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.SHL, a, b, imm, pred)

    def shr(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.SHR, a, b, imm, pred)

    def sra(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.SRA, a, b, imm, pred)

    def teq(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TEQ, a, b, imm, pred)

    def tne(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TNE, a, b, imm, pred)

    def tlt(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TLT, a, b, imm, pred)

    def tle(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TLE, a, b, imm, pred)

    def tgt(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TGT, a, b, imm, pred)

    def tge(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TGE, a, b, imm, pred)

    def tltu(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TLTU, a, b, imm, pred)

    def tgeu(self, a, b=None, imm=None, pred=None):
        return self._bin(Opcode.TGEU, a, b, imm, pred)

    def not_(self, a, pred=None):
        return self.op(Opcode.NOT, a, pred=pred)

    def neg(self, a, pred=None):
        return self.op(Opcode.NEG, a, pred=pred)

    def mov(self, a, pred=None):
        return self.op(Opcode.MOV, a, pred=pred)

    def _bin(self, opcode: Opcode, a: Wire, b: Optional[Wire],
             imm: Optional[int], pred: PredArg) -> Wire:
        """A two-operand opcode, all of which take an immediate in place
        of the second wire: :meth:`op`'s operand-count check holds by
        construction, so the instruction is emitted directly."""
        if (b is None) == (imm is None):
            raise IsaError(
                f"{opcode.value} needs exactly one of a second wire or imm=")
        return self._emit(Instruction(opcode, imm=imm), (a, b), pred)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def finish(self) -> Block:
        """Expand fan-out, validate and return the immutable block."""
        block = Block(self.name, self._reads, self._writes, self._insts,
                      limits=self.limits)
        _expand_fanout(block, self.max_targets)
        block.validate()
        return block


class ProgramBuilder:
    """Accumulates blocks and data segments into a validated program."""

    def __init__(self, entry: str, limits: BlockLimits = DEFAULT_LIMITS,
                 max_targets: int = DEFAULT_MAX_TARGETS):
        self.entry = entry
        self.limits = limits
        self.max_targets = max_targets
        self._builders: List[BlockBuilder] = []
        self._segments: List[DataSegment] = []

    def block(self, name: str) -> BlockBuilder:
        """Open a new block builder (blocks are finished at :meth:`build`)."""
        builder = BlockBuilder(self, name, self.limits, self.max_targets)
        self._builders.append(builder)
        return builder

    def data_words(self, name: str, base: int,
                   words: Sequence[int]) -> DataSegment:
        """Add a data segment of 64-bit little-endian words."""
        seg = DataSegment.from_words(name, base, words)
        self._segments.append(seg)
        return seg

    def data_bytes(self, name: str, base: int, data: bytes) -> DataSegment:
        """Add a raw byte data segment."""
        seg = DataSegment(name, base, bytes(data))
        self._segments.append(seg)
        return seg

    def build(self) -> Program:
        """Finish every block, assemble and validate the program."""
        program = Program(self.entry)
        for seg in self._segments:
            program.add_segment(seg)
        for builder in self._builders:
            program.add_block(builder.finish())
        program.validate()
        return program


@functools.lru_cache(maxsize=1024)
def _inst_target(index: int, slot: Slot) -> Target:
    """The target of operand ``slot`` of instruction ``index``: one
    shared object per pair (targets are immutable), built once instead
    of once per emitted operand."""
    return Target(TARGET_INST, index, slot)


def _split_pred(pred: PredArg) -> Tuple[Optional[Wire], Optional[bool]]:
    if pred is None:
        return None, None
    if isinstance(pred, Wire):
        return pred, True
    wire, sense = pred
    return wire, bool(sense)


def _expand_fanout(block: Block, max_targets: int) -> None:
    """Insert MOV trees for producers exceeding the target-count limit.

    The inserted MOV inherits the producer's predicate-free semantics: it
    simply forwards the token (including NULL tokens at run time), so
    predication still behaves identically.
    """
    changed = True
    while changed:
        changed = False
        for _, targets in block._iter_target_lists():
            if len(targets) > max_targets:
                overflow = targets[max_targets - 1:]
                del targets[max_targets - 1:]
                mov_idx = len(block.instructions)
                block.instructions.append(
                    Instruction(Opcode.MOV, targets=list(overflow)))
                targets.append(Target(TargetKind.INST, mov_idx, Slot.OP0))
                changed = True
    block.invalidate_caches()
