"""Unit tests for the instruction-node state machine (fire / suppression /
commit rules of the DSRE protocol)."""

import pytest

from repro.core.node import InstructionNode, OutcomeKind
from repro.core.tokens import Token, inst_dest
from repro.errors import SimulationError
from repro.isa.instruction import Instruction, Slot
from repro.isa.opcodes import Opcode

P0 = ("inst", 0)
P1 = ("inst", 1)
PP = ("inst", 2)


def make_node(opcode=Opcode.ADD, pred=None, imm=None, lsid=None, **kw):
    inst = Instruction(opcode, imm=imm, pred=pred, lsid=lsid, **kw)
    producers = {Slot.OP0: [P0], Slot.OP1: [P1], Slot.PRED: [PP]}
    slot_map = {s: producers[s] for s in inst.required_slots()}
    return InstructionNode(0, 9, inst, slot_map)


def feed(node, slot, value, wave=1, final=False, producer=None):
    defaults = {Slot.OP0: P0, Slot.OP1: P1, Slot.PRED: PP}
    token = Token(0, inst_dest(9, slot), producer or defaults[slot],
                  wave, value, final)
    return node.deposit(token)


def execute(node):
    node.begin_execution()
    return node.complete_execution()


class TestFireRule:
    def test_not_ready_until_all_slots(self):
        node = make_node()
        assert not node.can_issue()
        feed(node, Slot.OP0, 2)
        assert not node.can_issue()
        feed(node, Slot.OP1, 3)
        assert node.can_issue()

    def test_zero_input_node_ready_immediately(self):
        node = make_node(Opcode.MOVI, imm=7)
        assert node.can_issue()
        assert execute(node).value == 7

    def test_no_refire_without_change(self):
        node = make_node()
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        assert execute(node).value == 5
        assert not node.can_issue()

    def test_refire_on_new_wave(self):
        node = make_node()
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        execute(node)
        assert feed(node, Slot.OP0, 10, wave=2)
        assert node.can_issue()
        assert execute(node).value == 13
        assert node.exec_count == 2

    def test_change_mid_execution_needs_reissue(self):
        node = make_node()
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        node.begin_execution()
        feed(node, Slot.OP0, 4, wave=2)
        assert not node.can_issue()           # still executing
        node.complete_execution()
        assert node.can_issue()               # inputs changed meanwhile

    def test_double_issue_rejected(self):
        node = make_node()
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        node.begin_execution()
        with pytest.raises(SimulationError):
            node.begin_execution()

    def test_complete_without_issue_rejected(self):
        node = make_node()
        with pytest.raises(SimulationError):
            node.complete_execution()


class TestOutcomes:
    def test_alu_imm(self):
        node = make_node(Opcode.SHL, imm=4)
        feed(node, Slot.OP0, 1)
        assert execute(node).value == 16

    def test_predicated_match(self):
        node = make_node(pred=True)
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        feed(node, Slot.PRED, 1)
        assert execute(node).kind is OutcomeKind.VALUE

    def test_predicated_mismatch_null(self):
        node = make_node(pred=True)
        feed(node, Slot.OP0, 2)
        feed(node, Slot.OP1, 3)
        feed(node, Slot.PRED, 0)
        assert execute(node).kind is OutcomeKind.NULL

    def test_all_null_inputs_null(self):
        node = make_node(Opcode.MOV)
        feed(node, Slot.OP0, None)
        assert execute(node).kind is OutcomeKind.NULL

    def test_load_outcome(self):
        node = make_node(Opcode.LOAD, imm=8, lsid=0)
        feed(node, Slot.OP0, 0x100)
        outcome = execute(node)
        assert outcome.kind is OutcomeKind.LOAD_REQUEST
        assert outcome.addr == 0x108

    def test_store_outcome(self):
        node = make_node(Opcode.STORE, lsid=1)
        feed(node, Slot.OP0, 0x200)
        feed(node, Slot.OP1, 77)
        outcome = execute(node)
        assert outcome.kind is OutcomeKind.STORE_UPDATE
        assert (outcome.addr, outcome.store_value) == (0x200, 77)

    def test_branch_outcome(self):
        node = make_node(Opcode.BRO, branch_target="next")
        outcome = execute(node)
        assert outcome.kind is OutcomeKind.BRANCH
        assert outcome.value == "next"

    def test_predicate_flip_refires_to_null(self):
        node = make_node(Opcode.MOV, pred=True)
        feed(node, Slot.OP0, 5)
        feed(node, Slot.PRED, 1)
        assert execute(node).kind is OutcomeKind.VALUE
        feed(node, Slot.PRED, 0, wave=2)
        assert node.can_issue()
        assert execute(node).kind is OutcomeKind.NULL


class TestSuppressionRule:
    def test_first_emission_gets_wave_one(self):
        node = make_node(Opcode.MOVI, imm=3)
        execute(node)
        assert node.plan_emission(3, False) == (1, 3, False)

    def test_same_value_suppressed(self):
        node = make_node(Opcode.MOVI, imm=3)
        execute(node)
        node.plan_emission(3, False)
        assert node.plan_emission(3, False) is None

    def test_new_value_new_wave(self):
        node = make_node()
        feed(node, Slot.OP0, 1)
        feed(node, Slot.OP1, 1)
        execute(node)
        assert node.plan_emission(2, False) == (1, 2, False)
        assert node.plan_emission(5, False) == (2, 5, False)

    def test_final_upgrade_reuses_wave(self):
        node = make_node(Opcode.MOVI, imm=3)
        execute(node)
        node.plan_emission(3, False)
        assert node.plan_emission(3, True) == (1, 3, True)

    def test_nothing_after_final(self):
        node = make_node(Opcode.MOVI, imm=3)
        execute(node)
        node.plan_emission(3, True)
        assert node.plan_emission(3, True) is None
        assert node.plan_emission(4, False) is None


class TestCommitRule:
    def test_final_requires_final_inputs(self):
        node = make_node()
        feed(node, Slot.OP0, 1)
        feed(node, Slot.OP1, 2)
        execute(node)
        assert not node.output_final_ready()
        feed(node, Slot.OP0, 1, final=True)
        feed(node, Slot.OP1, 2, final=True)
        assert node.output_final_ready()

    def test_zero_input_final_immediately(self):
        node = make_node(Opcode.MOVI, imm=1)
        execute(node)
        assert node.output_final_ready()

    def test_not_final_if_inputs_changed_since_issue(self):
        node = make_node()
        feed(node, Slot.OP0, 1)
        feed(node, Slot.OP1, 2)
        execute(node)
        feed(node, Slot.OP0, 9, wave=2, final=True)
        feed(node, Slot.OP1, 2, final=True)
        assert not node.output_final_ready()   # must re-execute first
        execute(node)
        assert node.output_final_ready()

    def test_addr_inputs_final_for_store(self):
        node = make_node(Opcode.STORE, lsid=0)
        feed(node, Slot.OP0, 0x10, final=True)
        feed(node, Slot.OP1, 5)
        execute(node)
        assert node.addr_inputs_final()
        assert not node.output_final_ready()
        feed(node, Slot.OP1, 5, final=True)
        assert node.output_final_ready()
