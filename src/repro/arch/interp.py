"""Functional (golden-model) interpreter for EDGE programs.

Executes blocks one at a time with *converged* dataflow semantics: every
operand slot eventually resolves either to exactly one non-null value or to
all-null (every static producer declined via predication).  Memory
operations perform in LSID order against a per-block store overlay, giving
the sequential memory semantics the DSRE paper's machine guarantees at
commit.

The interpreter is the reference the timing simulator is validated against,
and its trace drives the perfect-oracle dependence policy.

Every block runs from a :class:`GoldenPlan` compiled once from the
validated block and cached on it (``Block._golden_plan``; cleared by
``Block.invalidate_caches`` and never pickled).  An EDGE block names
every consumer statically, so the plan turns each operand and write slot
into an index into flat value and null-count lists.  Execution follows
the original dict-keyed worklist, kept as :mod:`repro.arch.interp_ref`,
step for step: the same read-delivery order, LIFO ready stack, LSID
pump, convergence limit, per-byte overlay and last-writer rules and
error messages, so every trace is byte-identical to the reference's
(tests/test_golden_compiled.py; docs/PERFORMANCE.md §14).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError
from ..isa.block import Block
from ..isa.instruction import SLOT_OP0, SLOT_OP1, SLOT_PRED, TARGET_WRITE
from ..isa.opcodes import OP_INFO, Opcode
from ..isa.program import HALT_LABEL, Program
from ..isa.semantics import alu_callable
from ..isa.values import WORD_MASK, to_unsigned, truncate
from .memory import ADDRESS_MASK, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from .state import ArchState
from .trace import (BlockRecord, DynStoreId, ExecutionTrace, LoadRecord,
                    StoreRecord)

#: Hard cap on dynamic blocks unless the caller overrides it.
DEFAULT_MAX_BLOCKS = 1_000_000

#: Instruction kind codes of a plan row.
K_ALU2 = 0      # fn(OP0, OP1)
K_ALU1 = 1      # fn(OP0, arg): arg is the unsigned immediate, or 0
K_MOVI = 2      # the immediate is the result
K_LOAD = 3      # arg is the position in LSID order
K_STORE = 4     # arg is the position in LSID order
K_BRANCH = 5    # arg is the successor label

#: The kinds of the opcodes that are not ALU operations.
_KINDS = {Opcode.BRO: K_BRANCH, Opcode.LOAD: K_LOAD, Opcode.STORE: K_STORE,
          Opcode.MOVI: K_MOVI}

#: Opcode -> (kind, value operands, ALU callable), before an immediate
#: takes OP1's place.
_SHAPES = {
    opcode: ((_KINDS[opcode], info.arity, None) if opcode in _KINDS else
             (K_ALU2 if info.arity == 2 else K_ALU1, info.arity,
              alu_callable(opcode)))
    for opcode, info in OP_INFO.items()}

#: LSID states; anything but WAITING lets the pump pass the head.
_WAITING, _READY, _NULLIFIED = 0, 1, 2


class GoldenPlan:
    """One block compiled for the golden model.

    Flat slots: one per required operand slot of every instruction, in
    instruction order and (OP0, OP1, PRED) order within one, then one
    per write slot from ``write_base``.  ``need[s]`` is the slot's
    static producer count and ``owner[s]`` the consuming instruction's
    index (``~w`` for write slot ``w``).

    ``insts[i]`` is ``(kind, a, b, p, sense, fn, arg, targets)``: the
    flat OP0, OP1 and PRED slots (``-1`` when not consumed), the
    predicate sense, the ALU callable, the kind's argument (see the
    ``K_*`` codes) and the flat slots the result is delivered to.
    ``mem_rows[m]`` is ``(lsid, is_load, width, displacement, targets)``
    for the ``m``-th memory operation in LSID order.
    """

    __slots__ = ("name", "insts", "reads", "nslots", "write_base", "need",
                 "owner", "unresolved", "initial_ready", "write_regs",
                 "mem_rows", "limit")

    def __init__(self, block: Block):
        instructions = block.instructions
        owner: List[int] = []
        shapes = []                       # (kind, fn, a, b, p)
        unresolved = []
        for index, inst in enumerate(instructions):
            kind, arity, fn = _SHAPES[inst.opcode]
            if kind == K_ALU2 and inst.imm is not None:
                kind, arity = K_ALU1, 1   # the immediate replaces OP1
            base = len(owner)
            a = base if arity else -1
            b = base + 1 if arity == 2 else -1
            p = base + arity if inst.pred is not None else -1
            count = arity + (p >= 0)
            owner.extend([index] * count)
            shapes.append((kind, fn, a, b, p))
            unresolved.append(count)
        write_base = len(owner)
        owner.extend(~windex for windex in range(len(block.writes)))
        need = [0] * len(owner)

        def flat(targets):
            out = []
            for target in targets:
                if target.kind is TARGET_WRITE:
                    s = write_base + target.index
                else:
                    _, _, a, b, p = shapes[target.index]
                    slot = target.slot
                    s = (a if slot is SLOT_OP0 else
                         b if slot is SLOT_OP1 else p)
                need[s] += 1
                out.append(s)
            return tuple(out)

        self.reads = [(read.reg, flat(read.targets)) for read in block.reads]
        lsids = sorted(inst.lsid for inst in instructions if inst.is_memory)
        position = {lsid: pos for pos, lsid in enumerate(lsids)}
        self.mem_rows = [None] * len(lsids)
        self.insts = []
        for inst, (kind, fn, a, b, p) in zip(instructions, shapes):
            targets = flat(inst.targets)
            if kind == K_ALU1:
                arg = to_unsigned(inst.imm or 0)
            elif kind == K_ALU2:
                arg = 0
            elif kind == K_MOVI:
                # Masked when it fires, as the reference does, so a
                # missing immediate fails there and nowhere else.
                arg = inst.imm
            elif kind == K_BRANCH:
                arg = inst.branch_target
            else:
                arg = position[inst.lsid]
                self.mem_rows[arg] = (inst.lsid, kind == K_LOAD, inst.width,
                                      to_unsigned(inst.imm or 0), targets)
            self.insts.append((kind, a, b, p, inst.pred, fn, arg, targets))

        self.name = block.name
        self.nslots = len(owner)
        self.write_base = write_base
        self.need = need
        self.owner = owner
        self.unresolved = unresolved
        self.initial_ready = [index for index, count
                              in enumerate(unresolved) if count == 0]
        self.write_regs = [write.reg for write in block.writes]
        self.limit = 16 * (len(instructions) + 1) + 64

    def consumer_key(self, s: int) -> tuple:
        """Flat slot ``s`` as the block's ``ConsumerKey``."""
        if s >= self.write_base:
            return ("write", s - self.write_base, None)
        a, b, _ = self.insts[self.owner[s]][1:4]
        slot = SLOT_OP0 if s == a else SLOT_OP1 if s == b else SLOT_PRED
        return ("inst", self.owner[s], slot)


def golden_plan(block: Block) -> GoldenPlan:
    """The block's cached plan, compiled on first use."""
    plan = getattr(block, "_golden_plan", None)
    if plan is None:
        plan = block._golden_plan = GoldenPlan(block)
    return plan


def execute_block(plan: GoldenPlan, regs: List[int],
                  pages: Dict[int, bytearray],
                  last_writer: Dict[int, DynStoreId],
                  block_index: int) -> BlockRecord:
    """Run one dynamic instance of ``plan`` to convergence.

    Reads registers from ``regs`` and memory bytes from ``pages`` (a
    :class:`SparseMemory`'s page map); neither is written.  The caller
    commits the returned record's stores and register writes.
    """
    name = plan.name
    vals: List[Optional[int]] = [None] * plan.nslots
    nulls = [0] * plan.nslots
    need = plan.need
    owner = plan.owner
    unresolved = plan.unresolved[:]
    ready = plan.initial_ready[:]
    push = ready.append
    pop = ready.pop
    write_regs = plan.write_regs
    reg_writes: Dict[int, int] = {}

    def resolve(s):
        # Slot ``s`` just resolved: count its instruction down, or
        # record its write slot's register.
        i = owner[s]
        if i >= 0:
            left = unresolved[i] - 1
            unresolved[i] = left
            if not left:
                push(i)
            return
        value = vals[s]
        reg = write_regs[~i]
        if value is None:
            raise ExecutionError(
                f"block {name!r}: write slot W{~i} "
                f"(R{reg}) resolved all-null")
        if reg in reg_writes:
            raise ExecutionError(f"block {name!r}: "
                                 f"register R{reg} written twice")
        reg_writes[reg] = value

    def deliver(targets, value):
        if value is None:
            for s in targets:
                count = nulls[s] + 1
                nulls[s] = count
                if count == need[s] and vals[s] is None:
                    resolve(s)
            return
        for s in targets:
            if vals[s] is not None:
                raise ExecutionError(
                    f"block {name!r}: two non-null producers "
                    f"reached {plan.consumer_key(s)}")
            vals[s] = value
            if nulls[s] < need[s]:
                resolve(s)

    for reg, targets in plan.reads:
        deliver(targets, regs[reg])

    insts = plan.insts
    mem_rows = plan.mem_rows
    nmem = len(mem_rows)
    mstate = [_WAITING] * nmem
    mop0 = [0] * nmem
    mop1 = [0] * nmem
    overlay: Dict[int, Tuple[int, int]] = {}
    lw_get = last_writer.get
    loads: List[LoadRecord] = []
    stores: List[StoreRecord] = []
    label = None
    executed = nulled = 0
    cursor = steps = 0
    limit = plan.limit
    while ready or (cursor < nmem and mstate[cursor]):
        while ready:
            kind, a, b, p, sense, fn, arg, targets = insts[pop()]
            x = vals[a] if a >= 0 else 0
            y = vals[b] if b >= 0 else 0
            if p >= 0:
                pred = vals[p]
                null = pred is None or (pred != 0) != sense
            else:
                null = False
            if null or x is None or y is None:
                # Stores and branches have no targets to send NULL to.
                nulled += 1
                if kind == K_LOAD or kind == K_STORE:
                    mstate[arg] = _NULLIFIED
                deliver(targets, None)
                continue
            executed += 1
            if kind == K_ALU1:
                deliver(targets, fn(x, arg))
            elif kind == K_ALU2:
                deliver(targets, fn(x, y))
            elif kind == K_MOVI:
                deliver(targets, arg & WORD_MASK)
            elif kind == K_BRANCH:
                if label is not None:
                    raise ExecutionError(
                        f"block {name!r}: two branches fired "
                        f"({label!r} and {arg!r})")
                label = arg
            else:
                mop0[arg] = x
                mop1[arg] = y
                mstate[arg] = _READY

        # The LSID pump: perform memory operations in LSID order while
        # the head has fired.
        while cursor < nmem and mstate[cursor]:
            if mstate[cursor] == _READY:
                lsid, is_load, width, disp, targets = mem_rows[cursor]
                addr = (mop0[cursor] + disp) & WORD_MASK
                if is_load:
                    value, src, multi = _load(
                        addr, width, overlay, pages, lw_get, block_index)
                    loads.append(LoadRecord(lsid, addr, width, value, src,
                                            multi))
                    deliver(targets, value)
                else:
                    value = truncate(mop1[cursor], width)
                    payload = value.to_bytes(width, "little")
                    for offset in range(width):
                        overlay[(addr + offset) & WORD_MASK] = (
                            payload[offset], lsid)
                    stores.append(StoreRecord(lsid, addr, width, value))
            cursor += 1
        steps += 1
        if steps > limit:
            raise ExecutionError(
                f"block {name!r} did not converge "
                f"(LSID order inconsistent with dataflow?)")

    if cursor != nmem:
        raise ExecutionError(
            f"block {name!r}: memory op lsid={mem_rows[cursor][0]} never "
            f"performed (LSID order inconsistent with dataflow?)")
    if label is None:
        raise ExecutionError(f"block {name!r}: no branch fired")
    if len(reg_writes) != len(write_regs):
        raise ExecutionError(
            f"block {name!r}: only {len(reg_writes)} of "
            f"{len(write_regs)} write slots resolved")
    return BlockRecord(block_index, name, label, reg_writes, loads, stores,
                       executed, nulled)


def _load(addr: int, width: int, overlay: Dict[int, Tuple[int, int]],
          pages: Dict[int, bytearray], lw_get, block_index: int):
    """``(value, src_store, multi_writer)`` of one load.

    Each byte comes from the block's store overlay, else memory; its
    writer is the overlaying store, else the byte's last writer in an
    earlier block.  ``src_store`` is the youngest writer, and it is the
    very tuple object the reference picks (``max`` keeps the first of
    equal writers), so pickled traces share the same objects.
    """
    offset = addr & PAGE_MASK
    if not overlay and offset + width <= PAGE_SIZE:
        # One page, no overlay: the bytes are contiguous and do not
        # wrap, so read them in one slice.
        page = pages.get((addr & ADDRESS_MASK) >> PAGE_SHIFT)
        value = (0 if page is None else
                 int.from_bytes(page[offset:offset + width], "little"))
        real = [w for w in map(lw_get, range(addr, addr + width))
                if w is not None]
    else:
        data = bytearray()
        real = []
        for k in range(width):
            byte_addr = (addr + k) & WORD_MASK
            hit = overlay.get(byte_addr)
            if hit is not None:
                data.append(hit[0])
                real.append((block_index, hit[1]))
                continue
            masked = byte_addr & ADDRESS_MASK
            page = pages.get(masked >> PAGE_SHIFT)
            data.append(0 if page is None else page[masked & PAGE_MASK])
            writer = lw_get(byte_addr)
            if writer is not None:
                real.append(writer)
        value = int.from_bytes(data, "little")
    if not real:
        return value, None, False
    return value, max(real), len(set(real)) > 1


class Interpreter:
    """Whole-program functional execution with trace capture."""

    def __init__(self, program: Program,
                 initial_regs: Optional[Dict[int, int]] = None,
                 max_blocks: int = DEFAULT_MAX_BLOCKS):
        program.validate()
        self.program = program
        self.state = ArchState.for_program(program, initial_regs)
        self.max_blocks = max_blocks
        self.trace = ExecutionTrace()
        self._last_writer: Dict[int, DynStoreId] = {}

    def run(self) -> ExecutionTrace:
        """Execute from the entry block to ``@halt`` (or the block cap)."""
        regs = self.state.regs
        memory = self.state.memory
        pages = memory._pages
        last_writer = self._last_writer
        records = self.trace.records
        current = self.program.entry
        while current != HALT_LABEL:
            if len(records) >= self.max_blocks:
                raise ExecutionError(
                    f"exceeded max_blocks={self.max_blocks}; "
                    f"non-terminating program?")
            index = len(records)
            record = execute_block(golden_plan(self.program.block(current)),
                                   regs, pages, last_writer, index)
            for store in record.stores:
                addr, width, lsid = store.addr, store.width, store.lsid
                memory.write_int(addr, store.value, width)
                for offset in range(width):
                    last_writer[(addr + offset) & WORD_MASK] = (index, lsid)
            for reg, value in record.reg_writes.items():
                regs[reg] = value
            records.append(record)
            current = record.next_block
        self.trace.halted = True
        return self.trace


def run_program(program: Program,
                initial_regs: Optional[Dict[int, int]] = None,
                max_blocks: int = DEFAULT_MAX_BLOCKS
                ) -> Tuple[ExecutionTrace, ArchState]:
    """Convenience wrapper: run ``program`` and return (trace, final state)."""
    interp = Interpreter(program, initial_regs, max_blocks)
    trace = interp.run()
    return trace, interp.state
