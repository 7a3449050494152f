"""Reference functional interpreter: the golden model as first written.

Production runs the compiled golden model in :mod:`repro.arch.interp`.
This module keeps the original dict-keyed worklist unchanged, as the
oracle the compiled model is differentially tested against
(tests/test_golden_compiled.py) and as the fixed yardstick of the
throughput gate's calibration (benchmarks/test_sim_throughput.py).
Nothing under ``repro.harness`` or ``repro.uarch`` imports it, the same
way :mod:`repro.uarch.lsq_naive` backs the indexed LSQ.

Executes blocks one at a time with *converged* dataflow semantics: every
operand slot eventually resolves either to exactly one non-null value or to
all-null (every static producer declined via predication).  Memory
operations perform in LSID order against a per-block store overlay, giving
the sequential memory semantics the DSRE paper's machine guarantees at
commit.

The interpreter is the reference the timing simulator is validated against,
and its trace drives the perfect-oracle dependence policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError
from ..isa.block import Block, ConsumerKey
from ..isa.instruction import Instruction, Slot, Target, TargetKind
from ..isa.opcodes import Opcode
from ..isa.program import HALT_LABEL, Program
from ..isa.semantics import effective_address, evaluate_alu
from ..isa.values import is_true, to_unsigned, truncate, wrap
from .state import ArchState
from .trace import (BlockRecord, DynStoreId, ExecutionTrace, LoadRecord,
                    StoreRecord)

#: Hard cap on dynamic blocks unless the caller overrides it.
DEFAULT_MAX_BLOCKS = 1_000_000


@dataclass
class _SlotState:
    """Resolution state of one operand/write slot."""

    producer_count: int
    nulls: int = 0
    value: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.value is not None or self.nulls >= self.producer_count

    @property
    def is_all_null(self) -> bool:
        return self.value is None and self.nulls >= self.producer_count


class _MemState:
    """Per-LSID state while a block executes."""

    WAITING, READY, NULLIFIED, DONE = range(4)

    def __init__(self, inst_index: int, inst: Instruction):
        self.inst_index = inst_index
        self.inst = inst
        self.state = _MemState.WAITING
        self.op0 = 0
        self.op1 = 0


class BlockInterpreter:
    """Executes one dynamic instance of a block against architectural state."""

    def __init__(self, block: Block, state: ArchState, block_index: int,
                 last_writer: Dict[int, DynStoreId]):
        self.block = block
        self.state = state
        self.block_index = block_index
        self.last_writer = last_writer

        self.slots: Dict[ConsumerKey, _SlotState] = {
            key: _SlotState(len(prods))
            for key, prods in block.slot_producers.items()
        }
        self._unresolved: List[int] = [
            len(inst.required_slots()) for inst in block.instructions]
        self._fired = [False] * len(block.instructions)
        self._ready: List[int] = []
        self._branch_label: Optional[str] = None
        self._reg_writes: Dict[int, int] = {}
        self._writes_resolved = 0
        self._overlay: Dict[int, Tuple[int, int]] = {}  # addr -> (byte, lsid)
        self._mem: Dict[int, _MemState] = {}
        self._mem_order: List[int] = []
        self._mem_cursor = 0
        self._record = BlockRecord(block_index, block.name, "")
        for idx, inst in enumerate(block.instructions):
            if inst.is_memory:
                self._mem[inst.lsid] = _MemState(idx, inst)
        self._mem_order = sorted(self._mem)

    # ------------------------------------------------------------------

    def run(self) -> BlockRecord:
        """Execute to convergence and return the block's dynamic record."""
        for idx, inst in enumerate(self.block.instructions):
            if self._unresolved[idx] == 0:
                self._ready.append(idx)
        for ri, read in enumerate(self.block.reads):
            value = self.state.get_reg(read.reg)
            for target in read.targets:
                self._deliver(target, value)

        steps = 0
        limit = 16 * (len(self.block.instructions) + 1) + 64
        while self._ready or self._mem_pumpable():
            while self._ready:
                self._fire(self._ready.pop())
            self._pump_memory()
            steps += 1
            if steps > limit:
                raise ExecutionError(
                    f"block {self.block.name!r} did not converge "
                    f"(LSID order inconsistent with dataflow?)")

        self._check_complete()
        self._record.next_block = self._branch_label
        self._record.reg_writes = self._reg_writes
        return self._record

    # ------------------------------------------------------------------
    # Token delivery and firing
    # ------------------------------------------------------------------

    def _deliver(self, target: Target, value: Optional[int]) -> None:
        if target.kind is TargetKind.WRITE:
            key: ConsumerKey = ("write", target.index, None)
        else:
            key = ("inst", target.index, target.slot)
        slot = self.slots[key]
        was_resolved = slot.resolved
        if value is None:
            slot.nulls += 1
        else:
            if slot.value is not None:
                raise ExecutionError(
                    f"block {self.block.name!r}: two non-null producers "
                    f"reached {key}")
            slot.value = value
        if slot.resolved and not was_resolved:
            self._on_slot_resolved(key, slot)

    def _on_slot_resolved(self, key: ConsumerKey, slot: _SlotState) -> None:
        kind, index, _ = key
        if kind == "write":
            self._writes_resolved += 1
            if slot.value is None:
                raise ExecutionError(
                    f"block {self.block.name!r}: write slot W{index} "
                    f"(R{self.block.writes[index].reg}) resolved all-null")
            reg = self.block.writes[index].reg
            if reg in self._reg_writes:
                raise ExecutionError(f"block {self.block.name!r}: "
                                     f"register R{reg} written twice")
            self._reg_writes[reg] = slot.value
            return
        self._unresolved[index] -= 1
        if self._unresolved[index] == 0:
            self._ready.append(index)

    def _slot_value(self, index: int, slot: Slot) -> Optional[int]:
        state = self.slots.get(("inst", index, slot))
        return None if state is None else state.value

    def _fire(self, index: int) -> None:
        if self._fired[index]:
            raise ExecutionError(f"instruction I{index} fired twice")
        self._fired[index] = True
        inst = self.block.instructions[index]

        null = False
        for slot in inst.required_slots():
            if self.slots[("inst", index, slot)].is_all_null:
                null = True
        if not null and inst.pred is not None:
            pred_value = self._slot_value(index, Slot.PRED)
            if is_true(pred_value) != inst.pred:
                null = True

        if null:
            self._emit_null(index, inst)
            return
        self._record.executed += 1
        self._execute(index, inst)

    def _emit_null(self, index: int, inst: Instruction) -> None:
        self._record.nulled += 1
        if inst.is_memory:
            self._mem[inst.lsid].state = _MemState.NULLIFIED
        if inst.is_load:
            for target in inst.targets:
                self._deliver(target, None)
        elif not inst.is_memory and not inst.is_branch:
            for target in inst.targets:
                self._deliver(target, None)
        # Null branches simply contribute nothing to the branch unit;
        # null stores are recorded as nullified in the LSID sequence above.

    def _execute(self, index: int, inst: Instruction) -> None:
        if inst.is_branch:
            if self._branch_label is not None:
                raise ExecutionError(
                    f"block {self.block.name!r}: two branches fired "
                    f"({self._branch_label!r} and {inst.branch_target!r})")
            self._branch_label = inst.branch_target
            return
        if inst.is_memory:
            mem = self._mem[inst.lsid]
            mem.op0 = self._slot_value(index, Slot.OP0) or 0
            if inst.is_store:
                mem.op1 = self._slot_value(index, Slot.OP1) or 0
            mem.state = _MemState.READY
            return
        if inst.opcode is Opcode.MOVI:
            result = to_unsigned(inst.imm)
        else:
            value_slots = inst.required_value_slots()
            op0 = self._slot_value(index, Slot.OP0) or 0
            if inst.imm is not None:
                op1 = to_unsigned(inst.imm)
            elif Slot.OP1 in value_slots:
                op1 = self._slot_value(index, Slot.OP1) or 0
            else:
                op1 = 0
            result = evaluate_alu(inst.opcode, op0, op1)
        for target in inst.targets:
            self._deliver(target, result)

    # ------------------------------------------------------------------
    # LSID-ordered memory
    # ------------------------------------------------------------------

    def _mem_pumpable(self) -> bool:
        if self._mem_cursor >= len(self._mem_order):
            return False
        head = self._mem[self._mem_order[self._mem_cursor]]
        return head.state in (_MemState.READY, _MemState.NULLIFIED)

    def _pump_memory(self) -> None:
        while self._mem_pumpable():
            lsid = self._mem_order[self._mem_cursor]
            mem = self._mem[lsid]
            if mem.state == _MemState.READY:
                if mem.inst.is_load:
                    self._perform_load(lsid, mem)
                else:
                    self._perform_store(lsid, mem)
            mem.state = _MemState.DONE
            self._mem_cursor += 1

    def _perform_load(self, lsid: int, mem: _MemState) -> None:
        inst = mem.inst
        addr = effective_address(mem.op0, inst.imm or 0)
        writers: List[Optional[DynStoreId]] = []
        data = bytearray()
        for offset in range(inst.width):
            byte_addr = wrap(addr + offset)
            hit = self._overlay.get(byte_addr)
            if hit is not None:
                data.append(hit[0])
                writers.append((self.block_index, hit[1]))
            else:
                data.append(self.state.memory.read_bytes(byte_addr, 1)[0])
                writers.append(self.last_writer.get(byte_addr))
        value = int.from_bytes(bytes(data), "little")
        real = [w for w in writers if w is not None]
        src = max(real) if real else None
        self._record.loads.append(LoadRecord(
            lsid=lsid, addr=addr, width=inst.width, value=value,
            src_store=src, multi_writer=len(set(real)) > 1))
        for target in inst.targets:
            self._deliver(target, value)

    def _perform_store(self, lsid: int, mem: _MemState) -> None:
        inst = mem.inst
        addr = effective_address(mem.op0, inst.imm or 0)
        value = truncate(mem.op1, inst.width)
        payload = value.to_bytes(inst.width, "little")
        for offset, byte in enumerate(payload):
            self._overlay[wrap(addr + offset)] = (byte, lsid)
        self._record.stores.append(StoreRecord(
            lsid=lsid, addr=addr, width=inst.width, value=value))

    # ------------------------------------------------------------------

    def _check_complete(self) -> None:
        name = self.block.name
        if self._mem_cursor != len(self._mem_order):
            stuck = self._mem_order[self._mem_cursor]
            raise ExecutionError(
                f"block {name!r}: memory op lsid={stuck} never performed "
                f"(LSID order inconsistent with dataflow?)")
        if self._branch_label is None:
            raise ExecutionError(f"block {name!r}: no branch fired")
        if self._writes_resolved != len(self.block.writes):
            raise ExecutionError(
                f"block {name!r}: only {self._writes_resolved} of "
                f"{len(self.block.writes)} write slots resolved")


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
        current = self.program.entry
        while current != HALT_LABEL:
            if self.trace.block_count >= self.max_blocks:
                raise ExecutionError(
                    f"exceeded max_blocks={self.max_blocks}; "
                    f"non-terminating program?")
            block = self.program.block(current)
            record = self._run_block(block)
            self.trace.records.append(record)
            current = record.next_block
        self.trace.halted = True
        return self.trace

    def _run_block(self, block: Block) -> BlockRecord:
        interp = BlockInterpreter(
            block, self.state, self.trace.block_count, self._last_writer)
        record = interp.run()
        for store in record.stores:
            self.state.memory.write_int(store.addr, store.value, store.width)
            for offset in range(store.width):
                self._last_writer[wrap(store.addr + offset)] = (
                    record.index, store.lsid)
        for reg, value in record.reg_writes.items():
            self.state.set_reg(reg, value)
        return record


def run_program(program: Program,
                initial_regs: Optional[Dict[int, int]] = None,
                max_blocks: int = DEFAULT_MAX_BLOCKS
                ) -> Tuple[ExecutionTrace, ArchState]:
    """Convenience wrapper: run ``program`` and return (trace, final state)."""
    interp = Interpreter(program, initial_regs, max_blocks)
    trace = interp.run()
    return trace, interp.state
