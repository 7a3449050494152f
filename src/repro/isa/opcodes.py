"""Opcode definitions for the EDGE-style ISA.

The ISA is block-atomic: instructions inside a block communicate directly
(producer instructions name their consumers), registers are only read and
written at block boundaries, and memory operations carry load/store IDs
(LSIDs) that define sequential memory order within the block.

Each opcode declares its dataflow arity (how many value operands it consumes
before it can fire), whether it may take an immediate in place of its second
operand, and its nominal execution latency class.  The timing model reads
latencies from the machine configuration keyed by :class:`OpClass`, so the
numbers here are only defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class OpClass(enum.Enum):
    """Functional-unit class an opcode executes on."""

    INT_ALU = "int_alu"        # single-cycle integer ops, moves, compares
    INT_MUL = "int_mul"        # pipelined multiplier
    INT_DIV = "int_div"        # unpipelined divider
    MEM_LOAD = "mem_load"      # issues to the LSQ / data cache
    MEM_STORE = "mem_store"    # issues to the LSQ
    BRANCH = "branch"          # produces the block's exit target

    #: Identity hash, computed in C: members are singletons compared by
    #: identity, and the Python-level ``Enum.__hash__`` (a hash of the
    #: name) showed up at per-instruction frequency in program builds
    #: and dict lookups keyed by a member.  No output iterates a set of
    #: members, so no order depends on it.
    __hash__ = object.__hash__


class Opcode(enum.Enum):
    """All opcodes of the EDGE-style ISA.

    Arithmetic and logic opcodes operate on 64-bit two's-complement words.
    Compare opcodes (``TEQ`` .. ``TGEU``) produce 0 or 1 and are typically
    consumed by predicate slots or branches.
    """

    # Arithmetic / logic (2 operands, immediate allowed for the second).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"      # signed; division by zero yields 0 (documented quirk)
    MOD = "mod"      # signed remainder; modulo by zero yields 0
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"      # logical shift left (shift amount mod 64)
    SHR = "shr"      # logical shift right
    SRA = "sra"      # arithmetic shift right

    # Unary (1 operand).
    NOT = "not"
    NEG = "neg"
    MOV = "mov"      # identity; used for fan-out beyond the target limit
    SXT1 = "sxt1"    # sign-extend low byte
    SXT2 = "sxt2"    # sign-extend low half-word
    SXT4 = "sxt4"    # sign-extend low word

    # Immediate generation (0 operands).
    MOVI = "movi"

    # Compares (2 operands, immediate allowed); signed unless suffixed U.
    TEQ = "teq"
    TNE = "tne"
    TLT = "tlt"
    TLE = "tle"
    TGT = "tgt"
    TGE = "tge"
    TLTU = "tltu"
    TGEU = "tgeu"

    # Memory.  LOAD consumes an address (OP0); STORE consumes an address
    # (OP0) and a data value (OP1).  Both carry an LSID and a byte width and
    # may add a signed immediate displacement to the address.
    LOAD = "load"
    STORE = "store"

    # Branch: names the successor block.  Exactly one branch produces a
    # non-null target per block execution; predication arbitrates.
    BRO = "bro"

    #: Identity hash, as on :class:`OpClass`.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode."""

    arity: int                 # dataflow value operands (excluding predicate)
    op_class: OpClass
    allows_imm: bool           # immediate may replace the last value operand
    default_latency: int       # execute latency in cycles (default)


_ALU = OpClass.INT_ALU

OP_INFO: Dict[Opcode, OpInfo] = {
    Opcode.ADD: OpInfo(2, _ALU, True, 1),
    Opcode.SUB: OpInfo(2, _ALU, True, 1),
    Opcode.MUL: OpInfo(2, OpClass.INT_MUL, True, 3),
    Opcode.DIV: OpInfo(2, OpClass.INT_DIV, True, 12),
    Opcode.MOD: OpInfo(2, OpClass.INT_DIV, True, 12),
    Opcode.AND: OpInfo(2, _ALU, True, 1),
    Opcode.OR: OpInfo(2, _ALU, True, 1),
    Opcode.XOR: OpInfo(2, _ALU, True, 1),
    Opcode.SHL: OpInfo(2, _ALU, True, 1),
    Opcode.SHR: OpInfo(2, _ALU, True, 1),
    Opcode.SRA: OpInfo(2, _ALU, True, 1),
    Opcode.NOT: OpInfo(1, _ALU, False, 1),
    Opcode.NEG: OpInfo(1, _ALU, False, 1),
    Opcode.MOV: OpInfo(1, _ALU, False, 1),
    Opcode.SXT1: OpInfo(1, _ALU, False, 1),
    Opcode.SXT2: OpInfo(1, _ALU, False, 1),
    Opcode.SXT4: OpInfo(1, _ALU, False, 1),
    Opcode.MOVI: OpInfo(0, _ALU, False, 1),
    Opcode.TEQ: OpInfo(2, _ALU, True, 1),
    Opcode.TNE: OpInfo(2, _ALU, True, 1),
    Opcode.TLT: OpInfo(2, _ALU, True, 1),
    Opcode.TLE: OpInfo(2, _ALU, True, 1),
    Opcode.TGT: OpInfo(2, _ALU, True, 1),
    Opcode.TGE: OpInfo(2, _ALU, True, 1),
    Opcode.TLTU: OpInfo(2, _ALU, True, 1),
    Opcode.TGEU: OpInfo(2, _ALU, True, 1),
    Opcode.LOAD: OpInfo(1, OpClass.MEM_LOAD, False, 1),
    Opcode.STORE: OpInfo(2, OpClass.MEM_STORE, False, 1),
    Opcode.BRO: OpInfo(0, OpClass.BRANCH, False, 1),
}

#: Opcodes whose result feeds the block's branch unit rather than other
#: instructions' operand slots.
BRANCH_OPCODES = frozenset({Opcode.BRO})

#: Opcodes that interact with the LSQ.
MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE})


def op_info(opcode: Opcode) -> OpInfo:
    """Return the static :class:`OpInfo` for ``opcode``."""
    return OP_INFO[opcode]
