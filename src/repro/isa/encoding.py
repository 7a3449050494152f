"""Binary encoding of EDGE programs.

A compact, versioned serialisation with exact round-tripping:
``decode(encode(program))`` reproduces every block, instruction, target,
read/write slot and data segment.  The format models how a real EDGE
binary would carry blocks (a string table for labels, per-block header,
fixed-order instruction records with variable-length immediates).

Layout (all integers little-endian)::

    magic "EDGB"  | u8 version | varint entry-name-index
    varint nstrings  { varint len, utf-8 bytes }*
    varint nsegments { varint name, varint base, varint len, bytes }*
    varint nblocks   { block }*

    block: varint name, varint nreads { varint reg, targets }*
           varint nwrites { varint reg }*
           varint ninsts  { instruction }*

    instruction: u8 opcode-id, u8 flags, [varint pred..], targets,
                 [svarint imm], [varint lsid, u8 width], [varint label]

Varints are LEB128; signed values use zigzag.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional

from ..errors import EncodingError
from .block import Block, ReadSlot, WriteSlot
from .instruction import Instruction, Slot, Target, TargetKind
from .opcodes import Opcode
from .program import DataSegment, Program

MAGIC = b"EDGB"
VERSION = 1

_OPCODES = list(Opcode)
_OPCODE_ID = {op: i for i, op in enumerate(_OPCODES)}

_FLAG_HAS_IMM = 1 << 0
_FLAG_PRED_TRUE = 1 << 1
_FLAG_PRED_FALSE = 1 << 2
_FLAG_IS_MEMORY = 1 << 3
_FLAG_IS_BRANCH = 1 << 4

_SLOT_ID = {Slot.OP0: 0, Slot.OP1: 1, Slot.PRED: 2}
_SLOT_BY_ID = {v: k for k, v in _SLOT_ID.items()}


# ----------------------------------------------------------------------
# varint primitives
# ----------------------------------------------------------------------

def _write_varint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise EncodingError(f"varint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def _read_varint(src: io.BytesIO) -> int:
    shift = 0
    value = 0
    while True:
        raw = src.read(1)
        if not raw:
            raise EncodingError("truncated varint")
        byte = raw[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 77:
            raise EncodingError("varint too long")


def _write_svarint(out: io.BytesIO, value: int) -> None:
    encoded = (value << 1) if value >= 0 else (((-value) << 1) - 1)
    _write_varint(out, encoded)


def _read_svarint(src: io.BytesIO) -> int:
    encoded = _read_varint(src)
    if encoded & 1:
        return -((encoded + 1) >> 1)
    return encoded >> 1


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

class _StringTable:
    def __init__(self):
        self.strings: List[str] = []
        self._index: Dict[str, int] = {}

    def add(self, text: str) -> int:
        if text not in self._index:
            self._index[text] = len(self.strings)
            self.strings.append(text)
        return self._index[text]


def encode(program: Program) -> bytes:
    """Serialise a validated program to bytes."""
    program.validate()
    strings = _StringTable()
    entry_idx = strings.add(program.entry)
    segment_name_idx = [strings.add(seg.name) for seg in program.segments]
    block_payloads = []
    for block in program.blocks.values():
        block_payloads.append(_encode_block(block, strings))

    out = io.BytesIO()
    out.write(MAGIC)
    out.write(bytes([VERSION]))
    _write_varint(out, entry_idx)
    _write_varint(out, len(strings.strings))
    for text in strings.strings:
        raw = text.encode("utf-8")
        _write_varint(out, len(raw))
        out.write(raw)
    _write_varint(out, len(program.segments))
    for name_idx, seg in zip(segment_name_idx, program.segments):
        _write_varint(out, name_idx)
        _write_varint(out, seg.base)
        _write_varint(out, len(seg.data))
        out.write(seg.data)
    _write_varint(out, len(block_payloads))
    for payload in block_payloads:
        out.write(payload)
    return out.getvalue()


def _encode_block(block: Block, strings: _StringTable) -> bytes:
    out = io.BytesIO()
    _write_varint(out, strings.add(block.name))
    _write_varint(out, len(block.reads))
    for read in block.reads:
        _write_varint(out, read.reg)
        _encode_targets(out, read.targets)
    _write_varint(out, len(block.writes))
    for write in block.writes:
        _write_varint(out, write.reg)
    _write_varint(out, len(block.instructions))
    for inst in block.instructions:
        _encode_instruction(out, inst, strings)
    return out.getvalue()


def _encode_targets(out: io.BytesIO, targets: List[Target]) -> None:
    _write_varint(out, len(targets))
    for target in targets:
        kind = 1 if target.kind is TargetKind.WRITE else 0
        slot = _SLOT_ID[target.slot]
        _write_varint(out, (target.index << 3) | (slot << 1) | kind)


def _encode_instruction(out: io.BytesIO, inst: Instruction,
                        strings: _StringTable) -> None:
    out.write(bytes([_OPCODE_ID[inst.opcode]]))
    flags = 0
    if inst.imm is not None:
        flags |= _FLAG_HAS_IMM
    if inst.pred is True:
        flags |= _FLAG_PRED_TRUE
    elif inst.pred is False:
        flags |= _FLAG_PRED_FALSE
    if inst.is_memory:
        flags |= _FLAG_IS_MEMORY
    if inst.is_branch:
        flags |= _FLAG_IS_BRANCH
    out.write(bytes([flags]))
    _encode_targets(out, inst.targets)
    if inst.imm is not None:
        _write_svarint(out, inst.imm)
    if inst.is_memory:
        _write_varint(out, inst.lsid)
        out.write(bytes([inst.width]))
    if inst.is_branch:
        _write_varint(out, strings.add(inst.branch_target))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def decode(blob: bytes) -> Program:
    """Deserialise a program and validate it."""
    src = io.BytesIO(blob)
    if src.read(4) != MAGIC:
        raise EncodingError("bad magic (not an EDGE binary)")
    version = src.read(1)
    if not version or version[0] != VERSION:
        raise EncodingError(f"unsupported version {version!r}")
    entry_idx = _read_varint(src)
    strings = [_read_string(src) for _ in range(_read_varint(src))]

    def string(idx: int) -> str:
        try:
            return strings[idx]
        except IndexError:
            raise EncodingError(f"string index {idx} out of range") from None

    segments = []
    for _ in range(_read_varint(src)):
        name = string(_read_varint(src))
        base = _read_varint(src)
        length = _read_varint(src)
        data = src.read(length)
        if len(data) != length:
            raise EncodingError("truncated segment data")
        segments.append(DataSegment(name, base, data))

    blocks = []
    for _ in range(_read_varint(src)):
        blocks.append(_decode_block(src, string))

    program = Program(entry=string(entry_idx), blocks=blocks,
                      segments=segments)
    program.validate()
    return program


def _read_string(src: io.BytesIO) -> str:
    length = _read_varint(src)
    raw = src.read(length)
    if len(raw) != length:
        raise EncodingError("truncated string")
    return raw.decode("utf-8")


def _decode_block(src: io.BytesIO, string) -> Block:
    name = string(_read_varint(src))
    reads = []
    for _ in range(_read_varint(src)):
        reg = _read_varint(src)
        reads.append(ReadSlot(reg, _decode_targets(src)))
    writes = [WriteSlot(_read_varint(src))
              for _ in range(_read_varint(src))]
    instructions = [_decode_instruction(src, string)
                    for _ in range(_read_varint(src))]
    return Block(name, reads, writes, instructions)


def _decode_targets(src: io.BytesIO) -> List[Target]:
    targets = []
    for _ in range(_read_varint(src)):
        packed = _read_varint(src)
        kind = TargetKind.WRITE if packed & 1 else TargetKind.INST
        slot = _SLOT_BY_ID[(packed >> 1) & 0x3]
        targets.append(Target(kind, packed >> 3, slot))
    return targets


def _decode_instruction(src: io.BytesIO, string) -> Instruction:
    opcode_raw = src.read(1)
    flags_raw = src.read(1)
    if not opcode_raw or not flags_raw:
        raise EncodingError("truncated instruction")
    try:
        opcode = _OPCODES[opcode_raw[0]]
    except IndexError:
        raise EncodingError(f"bad opcode id {opcode_raw[0]}") from None
    flags = flags_raw[0]
    targets = _decode_targets(src)
    pred: Optional[bool] = None
    if flags & _FLAG_PRED_TRUE:
        pred = True
    elif flags & _FLAG_PRED_FALSE:
        pred = False
    imm = _read_svarint(src) if flags & _FLAG_HAS_IMM else None
    lsid = None
    width = 8
    if flags & _FLAG_IS_MEMORY:
        lsid = _read_varint(src)
        width = src.read(1)[0]
    branch_target = string(_read_varint(src)) \
        if flags & _FLAG_IS_BRANCH else None
    return Instruction(opcode, targets=targets, imm=imm, pred=pred,
                       lsid=lsid, width=width, branch_target=branch_target)
