"""The DSRE protocol's fire, suppression and commit rules, on nodes of a
frame mapped by ``Processor._map_frame``.

Operands arrive as the delivery sweep deposits them: ``deposit4`` on the
node's buffer, then ``Processor._on_node_event`` when the slot changed.
That event enqueues the node on its tile when the fire rule holds; the
tile walk of ``Processor.run`` issues it, which these unit tests stand in
for with :func:`issue`.
"""

import pytest

from repro.core.node import NodeState, OutcomeKind
from repro.errors import SimulationError
from repro.isa import Opcode, Slot
from repro.uarch.config import default_config
from repro.uarch.events import EventHooks
from repro.uarch.processor import Processor

from .conftest import build_single_block


def mapped(opcode, body, **overrides):
    """``(processor, frame, node)``: the first ``opcode`` node of the
    one-block program ``body`` builds, mapped before the first cycle.
    The program never runs, so it needs no golden trace."""
    overrides.setdefault("check_with_golden", False)
    proc = Processor(build_single_block(body), default_config(**overrides))
    proc._map_frame("main")
    frame = proc.frames[0]
    node = next(n for n in frame.nodes if n.inst.opcode is opcode)
    return proc, frame, node


def feed(proc, frame, node, slot, value, wave=1, final=False):
    """Deliver one token from the slot's static producer; True when the
    slot's state changed."""
    producer = frame.block.slot_producers[("inst", node.index, slot)][0]
    buffer = node._buffer_list[node._sig_slots.index(slot)]
    node._sig_cache = None
    changed, finality = buffer.deposit4(producer, wave, value, final)
    if changed or finality:
        proc._on_node_event(frame, node)
    return changed or finality


def queued(proc, node):
    """The node has a pending ready entry on its tile."""
    tile = proc.tiles[proc._inst_tile[node.index]]
    return tile._queued.get(node) == node.life


def issue(proc, node):
    """The tile walk's issue step: clear the node's ready membership
    and start its FU pass."""
    proc.tiles[proc._inst_tile[node.index]]._queued.pop(node, None)
    node.state = NodeState.EXECUTING
    node.issued_signature = node.current_signature()
    node.exec_count += 1


def execute(proc, node):
    issue(proc, node)
    return node.complete_execution()


def add_body(b):
    b.write(1, b.add(b.read(1), b.read(2)))


def predicated_add_body(b):
    b.write(1, b.add(b.read(1), b.read(2), pred=b.read(3)))


class TestFireRule:
    def test_not_ready_until_all_slots(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        assert not queued(proc, node)
        feed(proc, frame, node, Slot.OP0, 2)
        assert not queued(proc, node)
        feed(proc, frame, node, Slot.OP1, 3)
        assert queued(proc, node)

    def test_zero_input_node_ready_immediately(self):
        proc, _, node = mapped(Opcode.MOVI,
                               lambda b: b.write(1, b.movi(7)))
        assert queued(proc, node)
        assert execute(proc, node).value == 7

    def test_no_refire_without_change(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 2)
        feed(proc, frame, node, Slot.OP1, 3)
        assert execute(proc, node).value == 5
        assert not feed(proc, frame, node, Slot.OP0, 2)   # a repeat
        assert feed(proc, frame, node, Slot.OP0, 2, final=True)
        assert not queued(proc, node)

    def test_refire_on_new_wave(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 2)
        feed(proc, frame, node, Slot.OP1, 3)
        execute(proc, node)
        assert feed(proc, frame, node, Slot.OP0, 10, wave=2)
        assert queued(proc, node)
        assert execute(proc, node).value == 13
        assert node.exec_count == 2

    def test_change_mid_execution_needs_reissue(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 2)
        feed(proc, frame, node, Slot.OP1, 3)
        issue(proc, node)
        feed(proc, frame, node, Slot.OP0, 4, wave=2)
        assert not queued(proc, node)          # still executing
        node.complete_execution()
        assert node.current_signature() != node.issued_signature

    def test_double_issue_rejected(self):
        # The tile walk's half of the fire rule: a ready entry that
        # reaches a node still executing does not issue it again, even
        # with a changed input; the re-issue waits for the completion.
        proc = Processor(
            build_single_block(
                lambda b: b.write(1, b.add(b.mul(b.movi(3), imm=5), imm=1))),
            default_config(grid_width=1, grid_height=1))
        muls = []

        class Requeue(EventHooks):
            def on_issue(self, cycle, frame_uid, node_index, opcode,
                         exec_count):
                if opcode != Opcode.MUL.value:
                    return
                muls.append(cycle)
                if exec_count == 1:
                    frame = proc.frames_by_uid[frame_uid]
                    node = frame.nodes[node_index]
                    # Same value, newer wave: the signature moves.
                    feed(proc, frame, node, Slot.OP0, 3, wave=2, final=True)
                    proc._enqueue(frame, node)

        proc.attach_hooks(Requeue())
        proc.run()
        mul = next(inst for inst in proc.program.block("main").instructions
                   if inst.opcode is Opcode.MUL)
        assert muls == [muls[0], muls[0] + proc._op_latency[id(mul)]]
        assert proc.arch.get_reg(1) == 16

    def test_complete_without_issue_rejected(self):
        _, _, node = mapped(Opcode.ADD, add_body)
        with pytest.raises(SimulationError):
            node.complete_execution()


class TestOutcomes:
    def test_alu_imm(self):
        proc, frame, node = mapped(
            Opcode.SHL, lambda b: b.write(1, b.shl(b.read(1), imm=4)))
        feed(proc, frame, node, Slot.OP0, 1)
        assert execute(proc, node).value == 16

    def test_predicated_match(self):
        proc, frame, node = mapped(Opcode.ADD, predicated_add_body)
        feed(proc, frame, node, Slot.OP0, 2)
        feed(proc, frame, node, Slot.OP1, 3)
        feed(proc, frame, node, Slot.PRED, 1)
        assert execute(proc, node).kind is OutcomeKind.VALUE

    def test_predicated_mismatch_null(self):
        proc, frame, node = mapped(Opcode.ADD, predicated_add_body)
        feed(proc, frame, node, Slot.OP0, 2)
        feed(proc, frame, node, Slot.OP1, 3)
        feed(proc, frame, node, Slot.PRED, 0)
        assert execute(proc, node).kind is OutcomeKind.NULL

    def test_all_null_inputs_null(self):
        proc, frame, node = mapped(
            Opcode.MOV, lambda b: b.write(1, b.mov(b.read(1))))
        feed(proc, frame, node, Slot.OP0, None)
        assert queued(proc, node)
        assert execute(proc, node).kind is OutcomeKind.NULL

    def test_load_outcome(self):
        proc, frame, node = mapped(
            Opcode.LOAD, lambda b: b.write(1, b.load(b.read(1), offset=8)))
        feed(proc, frame, node, Slot.OP0, 0x100)
        outcome = execute(proc, node)
        assert outcome.kind is OutcomeKind.LOAD_REQUEST
        assert outcome.addr == 0x108

    def test_store_outcome(self):
        def body(b):
            b.store(b.read(1), b.read(2))
            b.write(1, b.movi(0))
        proc, frame, node = mapped(Opcode.STORE, body)
        feed(proc, frame, node, Slot.OP0, 0x200)
        feed(proc, frame, node, Slot.OP1, 77)
        outcome = execute(proc, node)
        assert outcome.kind is OutcomeKind.STORE_UPDATE
        assert (outcome.addr, outcome.store_value) == (0x200, 77)

    def test_branch_outcome(self):
        proc, _, node = mapped(Opcode.BRO, lambda b: b.write(1, b.movi(0)))
        outcome = execute(proc, node)
        assert outcome.kind is OutcomeKind.BRANCH
        assert outcome.value == "@halt"

    def test_predicate_flip_refires_to_null(self):
        proc, frame, node = mapped(
            Opcode.MOV,
            lambda b: b.write(1, b.mov(b.read(1), pred=b.read(2))))
        feed(proc, frame, node, Slot.OP0, 5)
        feed(proc, frame, node, Slot.PRED, 1)
        assert execute(proc, node).kind is OutcomeKind.VALUE
        feed(proc, frame, node, Slot.PRED, 0, wave=2)
        assert queued(proc, node)
        assert execute(proc, node).kind is OutcomeKind.NULL


def movi_node(imm=3):
    return mapped(Opcode.MOVI, lambda b: b.write(1, b.movi(imm)))


class TestSuppressionRule:
    def test_first_emission_gets_wave_one(self):
        proc, _, node = movi_node()
        execute(proc, node)
        assert node.plan_emission(3, False) == (1, 3, False)

    def test_same_value_suppressed(self):
        proc, _, node = movi_node()
        execute(proc, node)
        node.plan_emission(3, False)
        assert node.plan_emission(3, False) is None

    def test_new_value_new_wave(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 1)
        feed(proc, frame, node, Slot.OP1, 1)
        execute(proc, node)
        assert node.plan_emission(2, False) == (1, 2, False)
        assert node.plan_emission(5, False) == (2, 5, False)

    def test_final_upgrade_reuses_wave(self):
        proc, _, node = movi_node()
        execute(proc, node)
        node.plan_emission(3, False)
        assert node.plan_emission(3, True) == (1, 3, True)

    def test_nothing_after_final(self):
        proc, _, node = movi_node()
        execute(proc, node)
        node.plan_emission(3, True)
        assert node.plan_emission(3, True) is None
        assert node.plan_emission(4, False) is None


class TestCommitRule:
    def test_final_requires_final_inputs(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 1)
        feed(proc, frame, node, Slot.OP1, 2)
        execute(proc, node)
        assert not node.output_final_ready()
        feed(proc, frame, node, Slot.OP0, 1, final=True)
        feed(proc, frame, node, Slot.OP1, 2, final=True)
        assert node.output_final_ready()

    def test_zero_input_final_immediately(self):
        proc, _, node = movi_node(1)
        execute(proc, node)
        assert node.output_final_ready()

    def test_not_final_if_inputs_changed_since_issue(self):
        proc, frame, node = mapped(Opcode.ADD, add_body)
        feed(proc, frame, node, Slot.OP0, 1)
        feed(proc, frame, node, Slot.OP1, 2)
        execute(proc, node)
        feed(proc, frame, node, Slot.OP0, 9, wave=2, final=True)
        feed(proc, frame, node, Slot.OP1, 2, final=True)
        assert not node.output_final_ready()   # must re-execute first
        execute(proc, node)
        assert node.output_final_ready()

    def test_finality_upgrade_emits_commit_wave(self):
        # Under a commit-wave protocol, the last final input of an
        # executed node sends its output again, marked final.
        proc, frame, node = mapped(Opcode.ADD, add_body, recovery="dsre")
        feed(proc, frame, node, Slot.OP0, 1)
        feed(proc, frame, node, Slot.OP1, 2)
        outcome = execute(proc, node)
        proc._emit_node_output(frame, node, outcome, False)
        proc.network._heap.clear()
        feed(proc, frame, node, Slot.OP0, 1, final=True)
        assert not proc.network._heap
        feed(proc, frame, node, Slot.OP1, 2, final=True)
        finals = [entry for _, _, entry in proc.network._heap]
        assert finals and all(entry[-1] is True for entry in finals)
        assert node.final_emitted

    def test_addr_inputs_final_for_store(self):
        def body(b):
            b.store(b.read(1), b.read(2))
            b.write(1, b.movi(0))
        proc, frame, node = mapped(Opcode.STORE, body)
        feed(proc, frame, node, Slot.OP0, 0x10, final=True)
        feed(proc, frame, node, Slot.OP1, 5)
        execute(proc, node)
        assert node.addr_inputs_final()
        assert not node.output_final_ready()
        feed(proc, frame, node, Slot.OP1, 5, final=True)
        assert node.output_final_ready()
