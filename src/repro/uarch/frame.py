"""In-flight block frames.

A frame is one dynamic instance of a block occupying a slot of the
distributed instruction window: its instruction nodes (spread across the
tile grid), its register read/write interface, and its branch unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.buffers import SlotBuffer, buffer_spec
from ..core.node import OUT_NULL, InstructionNode, build_node_template
from ..core.tokens import STATUS_VALUE
from ..errors import SimulationError
from ..isa.block import Block
from ..isa.instruction import TARGET_WRITE


def _build_frame_template(block: Block):
    """Per-block construction template, validated once and reused.

    Every dynamic frame of a block rebuilds identical producer-order maps
    and index dicts; this captures them (all read-only) so frame mapping
    is allocation of fresh mutable state only.  Cached on the block itself
    (cleared by ``Block.invalidate_caches``).

    One pass over the target lists collects every slot's producers, in
    the order of ``Block.slot_producers`` (reads, then instructions, each
    in target order).  Returns ``(node templates, write buffer specs,
    branch buffer spec, lsid -> instruction index, register -> write
    index, indices of the nodes with no required slot)``; a buffer spec
    is :func:`~repro.core.buffers.buffer_spec`'s ``(class, argument)``.
    """
    instructions = block.instructions
    inst_producers = [[[], [], []] for _ in instructions]
    write_producers = [[] for _ in block.writes]
    sources = [(("read", ri), read.targets)
               for ri, read in enumerate(block.reads)]
    sources += [(("inst", ii), inst.targets)
                for ii, inst in enumerate(instructions)]
    for producer, targets in sources:
        for target in targets:
            if target.kind is TARGET_WRITE:
                write_producers[target.index].append(producer)
            else:
                inst_producers[target.index][target.slot._value_].append(
                    producer)
    node_templates = tuple(
        build_node_template(idx, inst, inst.required_slots(),
                            inst_producers[idx])
        for idx, inst in enumerate(instructions))
    write_specs = tuple(buffer_spec({p: n for n, p in enumerate(producers)})
                        for producers in write_producers)
    branch_spec = buffer_spec({("inst", i): n for n, i
                               in enumerate(block.branch_indices)})
    lsid_to_index = {inst.lsid: i for i, inst in enumerate(instructions)
                     if inst.is_memory}
    write_index_of_reg = {w.reg: wi for wi, w in enumerate(block.writes)}
    constants = tuple(nt[0] for nt in node_templates if not nt[2])
    return (node_templates, write_specs, branch_spec, lsid_to_index,
            write_index_of_reg, constants)


def frame_template(block: Block):
    """``block``'s :func:`_build_frame_template`, built on first use."""
    template = block._frame_template
    if template is None:
        template = block._frame_template = _build_frame_template(block)
    return template


@dataclass
class ReadForward:
    """Latest value broadcast for one read slot."""

    wave: int = 0
    value: Optional[int] = None
    final: bool = False


class Frame:
    """One in-flight dynamic block."""

    def __init__(self, uid: int, seq: int, block: Block):
        self.uid = uid
        self.seq = seq
        self.block = block

        template = frame_template(block)
        (node_templates, write_specs, (branch_cls, branch_arg),
         lsid_to_index, write_index_of_reg, constants) = template

        self.nodes: List[InstructionNode] = [
            InstructionNode.from_template(uid, idx, inst, specs, plan,
                                          pkey, sig_slots)
            for idx, inst, specs, plan, pkey, sig_slots in node_templates]

        self.write_buffers: List[SlotBuffer] = [
            cls(arg) for cls, arg in write_specs]
        #: Last (value, final) forwarded per write slot, and its wave.
        self.write_forwarded: List[Optional[Tuple[int, bool]]] = (
            [None] * len(block.writes))
        self.write_fwd_wave: List[int] = [0] * len(block.writes)
        #: Younger frame uids subscribed to each write slot.
        self.subscribers: List[List[int]] = [[] for _ in block.writes]

        self.branch_buffer = branch_cls(branch_arg)

        self.read_forwards: List[ReadForward] = [
            ReadForward() for _ in block.reads]

        #: Shared, read-only index dicts from the block template, and
        #: the indices of the nodes with no required slot (the ones that
        #: may issue as soon as the frame is mapped).
        self.lsid_to_index: Dict[int, int] = lsid_to_index
        self.write_index_of_reg: Dict[int, int] = write_index_of_reg
        self.constants: Tuple[int, ...] = constants

        #: What the fetch engine predicted this block's successor to be.
        self.predicted_next: Optional[str] = None
        #: Block name actually fetched after this frame (for redirects).
        self.fetched_next: Optional[str] = None
        #: The block's compiled activation plan (repro.uarch.specialize)
        #: that every send of this frame reads, attached by
        #: ``Processor._map_frame`` on every map — including recycled
        #: frames, which may have been parked under a different machine
        #: point.  ``None`` only while the frame is unmapped.
        self.plan = None

    # ------------------------------------------------------------------

    def reset_for_reuse(self, uid: int, seq: int) -> None:
        """Rebind a retired frame to a new dynamic block instance.

        The invariant — *recycled frames leak no state* — means every
        mutable field a fresh ``__init__`` would build is restored here:
        node state machines and their token buffers, write/branch buffers,
        forwarding records, subscriber lists, read wiring, and prediction
        bookkeeping.  Shared read-only template structures (node plans,
        producer orders, index dicts) are kept, which is the entire point
        of recycling.  ``tests/test_arena.py`` asserts byte-identical
        results against fresh allocation for every recovery protocol.
        """
        self.uid = uid
        self.seq = seq
        for node in self.nodes:
            node.reset_for_reuse(uid)
        for buffer in self.write_buffers:
            buffer.reset()
        write_count = len(self.write_forwarded)
        self.write_forwarded = [None] * write_count
        self.write_fwd_wave = [0] * write_count
        for subs in self.subscribers:
            subs.clear()
        self.branch_buffer.reset()
        for fwd in self.read_forwards:
            fwd.wave = 0
            fwd.value = None
            fwd.final = False
        self.predicted_next = None
        self.fetched_next = None
        self.plan = None

    def node_of_lsid(self, lsid: int) -> InstructionNode:
        return self.nodes[self.lsid_to_index[lsid]]

    @property
    def branch_label(self) -> Optional[str]:
        # A buffer's ``value`` is None unless its status is VALUE.
        return self.branch_buffer.value

    def branch_final(self) -> bool:
        if not self.branch_buffer.final:
            return False
        if self.branch_buffer.status is not STATUS_VALUE:
            raise SimulationError(
                f"frame {self.uid} ({self.block.name}): no branch fired")
        return True

    def writes_final(self) -> bool:
        for wi, buffer in enumerate(self.write_buffers):
            if not buffer.final:
                return False
            if buffer.status is not STATUS_VALUE:
                raise SimulationError(
                    f"frame {self.uid} ({self.block.name}): write slot "
                    f"W{wi} finalised all-null")
        return True

    def outputs_final(self) -> bool:
        """DSRE commit gate (the commit wave must have arrived)."""
        return self.writes_final() and self.branch_final()

    def final_reg_writes(self) -> Dict[int, int]:
        return {self.block.writes[wi].reg: buf.value
                for wi, buf in enumerate(self.write_buffers)}

    # ------------------------------------------------------------------

    def total_executions(self) -> int:
        return sum(node.exec_count for node in self.nodes)

    def useful_instructions(self) -> int:
        """Nodes whose (final) outcome was a real result, not a NULL."""
        count = 0
        for node in self.nodes:
            if node.last_outcome is not None \
                    and node.last_outcome.kind is not OUT_NULL:
                count += 1
        return count

    def __repr__(self) -> str:
        return f"<Frame uid={self.uid} seq={self.seq} {self.block.name}>"
