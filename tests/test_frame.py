"""Unit tests for in-flight frame state."""

import pytest

from repro.core.node import NodeState
from repro.isa import ProgramBuilder
from repro.uarch.config import default_config
from repro.uarch.frame import Frame
from repro.uarch.recovery import build_recovery


def build_block():
    pb = ProgramBuilder(entry="m")
    b = pb.block("m")
    v = b.movi(5)
    b.write(1, v)
    b.store(b.const(0x100), v)
    b.load(b.const(0x108))
    p = b.teq(v, imm=5)
    b.branch_if(p, "m", "@halt")
    b.write(2, p)
    return pb.build().block("m")


@pytest.fixture
def frame():
    return Frame(uid=7, seq=3, block=build_block())


class TestConstruction:
    def test_nodes_created(self, frame):
        assert len(frame.nodes) == len(frame.block.instructions)
        assert all(n.frame_uid == 7 for n in frame.nodes)

    def test_write_buffers(self, frame):
        assert len(frame.write_buffers) == 2
        assert frame.write_index_of_reg == {1: 0, 2: 1}

    def test_lsid_map(self, frame):
        store_idx = frame.block.instruction_of_lsid(0)
        assert frame.node_of_lsid(0).index == store_idx

    def test_branch_buffer_producers(self, frame):
        assert frame.branch_buffer._order == {
            ("inst", i): n for n, i in enumerate(frame.block.branch_indices)}


def _write(frame, wi, value, final=False):
    producer = frame.block.slot_producers[("write", wi, None)][0]
    return frame.write_buffers[wi].deposit4(producer, 1, value, final)


def _branch(frame, label, final=False, which=0):
    producer = ("inst", frame.block.branch_indices[which])
    return frame.branch_buffer.deposit4(producer, 1, label, final)


class TestOutputs:
    def test_branch_label_none_initially(self, frame):
        assert frame.branch_label is None
        assert not frame.branch_final()

    def test_branch_resolution(self, frame):
        _branch(frame, "m")
        assert frame.branch_label == "m"
        assert not frame.branch_final()      # other branch not final yet

    def test_branch_finality(self, frame):
        _branch(frame, "m", final=True)
        _branch(frame, None, final=True, which=1)
        assert frame.branch_final()

    def test_flush_commit_gate_is_completion(self, frame):
        gate = build_recovery(default_config(recovery="flush"))
        assert not gate.frame_outputs_ready(frame)
        _write(frame, 0, 5)
        _write(frame, 1, 1)
        assert not gate.frame_outputs_ready(frame)   # branch still missing
        _branch(frame, "m")
        assert gate.frame_outputs_ready(frame)       # nothing final yet

    def test_final_reg_writes(self, frame):
        _write(frame, 0, 42, final=True)
        _write(frame, 1, 1, final=True)
        assert frame.final_reg_writes() == {1: 42, 2: 1}
        assert frame.writes_final()


class TestAccounting:
    def test_total_executions_starts_zero(self, frame):
        assert frame.total_executions() == 0

    def test_useful_instructions_counts_outcomes(self, frame):
        assert frame.useful_instructions() == 0
        node = frame.nodes[0]     # the MOVI
        node.state = NodeState.EXECUTING   # as the tile walk issues it
        node.complete_execution()
        assert frame.useful_instructions() == 1
