"""Unit tests for block/program structural validation."""

import pytest

from repro.errors import BlockValidationError, IsaError
from repro.isa import (Block, BlockLimits, Instruction, Opcode, Program,
                       ReadSlot, Slot, Target, TargetKind, WriteSlot)
from repro.isa.program import DataSegment


def branch(label="@halt"):
    return Instruction(Opcode.BRO, branch_target=label)


def minimal_block(name="b"):
    return Block(name, instructions=[branch()])


class TestBlockLimits:
    def test_minimal_block_valid(self):
        minimal_block().validate()

    def test_too_many_instructions(self):
        insts = [Instruction(Opcode.MOVI, imm=0) for _ in range(200)]
        insts.append(branch())
        block = Block("big", instructions=insts)
        with pytest.raises(BlockValidationError, match="instructions"):
            block.validate()

    def test_custom_limits(self):
        limits = BlockLimits(max_instructions=2)
        insts = [Instruction(Opcode.MOVI, imm=0,
                             targets=[Target(TargetKind.WRITE, 0)]),
                 Instruction(Opcode.MOVI, imm=0), branch()]
        block = Block("b", writes=[WriteSlot(1)], instructions=insts,
                      limits=limits)
        with pytest.raises(BlockValidationError):
            block.validate()

    def test_empty_name_rejected(self):
        with pytest.raises(BlockValidationError):
            Block("", instructions=[branch()]).validate()

    def test_limits_check(self):
        with pytest.raises(ValueError):
            BlockLimits(max_instructions=0).check()


class TestInterface:
    def test_duplicate_write_reg(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.WRITE, 0),
                                    Target(TargetKind.WRITE, 1)])
        block = Block("b", writes=[WriteSlot(3), WriteSlot(3)],
                      instructions=[movi, branch()])
        with pytest.raises(BlockValidationError, match="two write slots"):
            block.validate()

    def test_duplicate_read_reg(self):
        block = Block("b", reads=[ReadSlot(2), ReadSlot(2)],
                      instructions=[branch()])
        with pytest.raises(BlockValidationError, match="read by two"):
            block.validate()

    def test_write_reg_out_of_range(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(64)],
                      instructions=[movi, branch()])
        with pytest.raises(BlockValidationError, match="out of range"):
            block.validate()

    def test_write_without_producer(self):
        block = Block("b", writes=[WriteSlot(1)], instructions=[branch()])
        with pytest.raises(BlockValidationError, match="no producer"):
            block.validate()


class TestMemoryConstraints:
    def test_duplicate_lsid(self):
        movi = Instruction(Opcode.MOVI, imm=0x1000,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0),
                                    Target(TargetKind.INST, 2, Slot.OP0)])
        l1 = Instruction(Opcode.LOAD, lsid=0,
                         targets=[Target(TargetKind.WRITE, 0)])
        l2 = Instruction(Opcode.LOAD, lsid=0,
                         targets=[Target(TargetKind.WRITE, 1)])
        block = Block("b", writes=[WriteSlot(1), WriteSlot(2)],
                      instructions=[movi, l1, l2, branch()])
        with pytest.raises(BlockValidationError, match="duplicate LSID"):
            block.validate()

    def test_missing_lsid(self):
        movi = Instruction(Opcode.MOVI, imm=0x1000,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0)])
        load = Instruction(Opcode.LOAD,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, load, branch()])
        with pytest.raises(BlockValidationError, match="without an LSID"):
            block.validate()

    def test_illegal_width(self):
        movi = Instruction(Opcode.MOVI, imm=0x1000,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0)])
        load = Instruction(Opcode.LOAD, lsid=0, width=3,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, load, branch()])
        with pytest.raises(BlockValidationError, match="width"):
            block.validate()

    def test_lsid_on_non_memory(self):
        movi = Instruction(Opcode.MOVI, imm=1, lsid=0,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, branch()])
        with pytest.raises(BlockValidationError, match="LSID"):
            block.validate()


class TestBranchConstraints:
    def test_no_branch(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)], instructions=[movi])
        with pytest.raises(BlockValidationError, match="no branch"):
            block.validate()

    def test_branch_without_target(self):
        block = Block("b", instructions=[Instruction(Opcode.BRO)])
        with pytest.raises(BlockValidationError, match="no target"):
            block.validate()

    def test_multiple_unpredicated_branches(self):
        block = Block("b", instructions=[branch("x"), branch("y")])
        with pytest.raises(BlockValidationError, match="predicated"):
            block.validate()

    def test_branch_with_dataflow_targets(self):
        bad = Instruction(Opcode.BRO, branch_target="@halt",
                          targets=[Target(TargetKind.WRITE, 0)])
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)], instructions=[movi, bad])
        with pytest.raises(BlockValidationError, match="no dataflow"):
            block.validate()


class TestWiring:
    def test_target_out_of_range(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.INST, 99, Slot.OP0)])
        block = Block("b", instructions=[movi, branch()])
        with pytest.raises(BlockValidationError, match="missing"):
            block.validate()

    def test_target_slot_not_consumed(self):
        # NOT is unary: it has no OP1.
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0),
                                    Target(TargetKind.INST, 1, Slot.OP1)])
        not_ = Instruction(Opcode.NOT,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, not_, branch()])
        with pytest.raises(BlockValidationError, match="does not consume"):
            block.validate()

    def test_pred_slot_on_unpredicated(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0),
                                    Target(TargetKind.INST, 1, Slot.PRED)])
        mov = Instruction(Opcode.MOV, targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, mov, branch()])
        with pytest.raises(BlockValidationError, match="does not consume"):
            block.validate()

    def test_missing_operand_producer(self):
        add = Instruction(Opcode.ADD, targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[add, branch()])
        with pytest.raises(BlockValidationError, match="has no producer"):
            block.validate()

    def test_dataflow_cycle_rejected(self):
        a = Instruction(Opcode.MOV,
                        targets=[Target(TargetKind.INST, 1, Slot.OP0)])
        b = Instruction(Opcode.MOV,
                        targets=[Target(TargetKind.INST, 0, Slot.OP0)])
        block = Block("b", instructions=[a, b, branch()])
        with pytest.raises(BlockValidationError, match="cycle"):
            block.validate()


class TestDerivedStructure:
    def test_slot_producers(self):
        movi = Instruction(Opcode.MOVI, imm=1,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0)])
        mov = Instruction(Opcode.MOV, targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, mov, branch()])
        block.validate()
        producers = block.slot_producers
        assert producers[("inst", 1, Slot.OP0)] == [("inst", 0)]
        assert producers[("write", 0, None)] == [("inst", 1)]

    def test_successors(self):
        p = Instruction(Opcode.MOVI, imm=1,
                        targets=[Target(TargetKind.INST, 1, Slot.PRED),
                                 Target(TargetKind.INST, 2, Slot.PRED)])
        b1 = Instruction(Opcode.BRO, branch_target="x", pred=True)
        b2 = Instruction(Opcode.BRO, branch_target="y", pred=False)
        block = Block("b", instructions=[p, b1, b2])
        block.validate()
        assert block.successors == ["x", "y"]
        assert block.branch_indices == [1, 2]

    def test_instruction_of_lsid(self):
        movi = Instruction(Opcode.MOVI, imm=0x100,
                           targets=[Target(TargetKind.INST, 1, Slot.OP0)])
        load = Instruction(Opcode.LOAD, lsid=5,
                           targets=[Target(TargetKind.WRITE, 0)])
        block = Block("b", writes=[WriteSlot(1)],
                      instructions=[movi, load, branch()])
        assert block.instruction_of_lsid(5) == 1
        with pytest.raises(KeyError):
            block.instruction_of_lsid(0)


class TestProgramValidation:
    def test_missing_entry(self):
        program = Program(entry="nope", blocks=[minimal_block("a")])
        with pytest.raises(IsaError, match="entry"):
            program.validate()

    def test_duplicate_block(self):
        program = Program(entry="a", blocks=[minimal_block("a")])
        with pytest.raises(IsaError, match="duplicate"):
            program.add_block(minimal_block("a"))

    def test_missing_successor(self):
        block = Block("a", instructions=[branch("ghost")])
        program = Program(entry="a", blocks=[block])
        with pytest.raises(IsaError, match="missing"):
            program.validate()

    def test_halt_successor_ok(self):
        Program(entry="a", blocks=[minimal_block("a")]).validate()

    def test_missing_successor_after_every_block_was_validated(self):
        # A validated block answers successors from its validation, so
        # the program check must still run on every call: a block that
        # loses its successor, an edited and invalidated branch, and an
        # added block each reach the missing-block check.
        a = Block("a", instructions=[branch("b")])
        program = Program(entry="a", blocks=[a, minimal_block("b")])
        program.validate()
        del program.blocks["b"]
        with pytest.raises(IsaError, match="missing block 'b'"):
            program.validate()
        a.instructions[0].branch_target = "@halt"
        a.invalidate_caches()
        program.validate()
        a.instructions[0].branch_target = "ghost"
        a.invalidate_caches()
        with pytest.raises(IsaError, match="missing block 'ghost'"):
            program.validate()
        a.instructions[0].branch_target = "@halt"
        a.invalidate_caches()
        program.validate()
        c = Block("c", instructions=[branch("nowhere")])
        c.validate()
        program.add_block(c)
        with pytest.raises(IsaError, match="missing block 'nowhere'"):
            program.validate()

    def test_overlapping_segments(self):
        program = Program(entry="a", blocks=[minimal_block("a")],
                          segments=[DataSegment("s1", 0x100, b"\x00" * 16),
                                    DataSegment("s2", 0x108, b"\x00" * 16)])
        with pytest.raises(IsaError, match="overlap"):
            program.validate()

    def test_adjacent_segments_ok(self):
        Program(entry="a", blocks=[minimal_block("a")],
                segments=[DataSegment("s1", 0x100, b"\x00" * 8),
                          DataSegment("s2", 0x108, b"\x00" * 8)]).validate()

    def test_unknown_block_lookup(self):
        program = Program(entry="a", blocks=[minimal_block("a")])
        with pytest.raises(IsaError, match="no block"):
            program.block("zzz")

    def test_static_instruction_count(self):
        program = Program(entry="a", blocks=[minimal_block("a"),
                                             minimal_block("b")])
        assert program.total_static_instructions() == 2
