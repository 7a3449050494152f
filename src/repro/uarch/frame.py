"""In-flight block frames.

A frame is one dynamic instance of a block occupying a slot of the
distributed instruction window: its instruction nodes (spread across the
tile grid), its register read/write interface, and its branch unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.buffers import SlotBuffer, new_buffer
from ..core.node import OUT_NULL, InstructionNode, build_node_template
from ..core.tokens import STATUS_VALUE
from ..errors import SimulationError
from ..isa.block import Block
from ..isa.instruction import Slot
from .config import MachineConfig


def _build_frame_template(block: Block):
    """Per-block construction template, validated once and reused.

    Every dynamic frame of a block rebuilds identical producer-order maps
    and index dicts; this captures them (all read-only) so frame mapping
    is allocation of fresh mutable state only.  Cached on the block itself
    (cleared by ``Block.invalidate_caches``).
    """
    producers = block.slot_producers
    node_templates = []
    for idx, inst in enumerate(block.instructions):
        slot_map: Dict[Slot, list] = {}
        for slot in inst.required_slots():
            slot_map[slot] = producers.get(("inst", idx, slot), [])
        node_templates.append(build_node_template(idx, inst, slot_map))
    write_orders = []
    for wi in range(len(block.writes)):
        write_producers = producers[("write", wi, None)]
        if not write_producers:
            raise SimulationError("token buffer with no static producers")
        write_orders.append({p: n for n, p in enumerate(write_producers)})
    branch_producers = [("inst", i) for i in block.branch_indices]
    if not branch_producers:
        raise SimulationError("token buffer with no static producers")
    branch_order = {p: n for n, p in enumerate(branch_producers)}
    lsid_to_index = {inst.lsid: i for i, inst in enumerate(block.instructions)
                     if inst.is_memory}
    write_index_of_reg = {w.reg: wi for wi, w in enumerate(block.writes)}
    return (tuple(node_templates), tuple(write_orders), branch_order,
            lsid_to_index, write_index_of_reg)

#: Where a frame's register read gets its value: the architectural file
#: (with the value captured at map time) or an older in-flight frame's
#: write slot.
ReadSource = Union[Tuple[str, int], Tuple[str, int, int]]
# ("arch", value) | ("frame", source_frame_uid, write_slot_index)


@dataclass
class ReadForward:
    """Latest value broadcast for one read slot."""

    wave: int = 0
    value: Optional[int] = None
    final: bool = False


class Frame:
    """One in-flight dynamic block."""

    def __init__(self, uid: int, seq: int, block: Block,
                 config: MachineConfig):
        self.uid = uid
        self.seq = seq
        self.block = block
        self.config = config

        template = getattr(block, "_frame_template", None)
        if template is None:
            template = _build_frame_template(block)
            block._frame_template = template
        (node_templates, write_orders, branch_order,
         lsid_to_index, write_index_of_reg) = template

        self.nodes: List[InstructionNode] = [
            InstructionNode.from_template(uid, idx, inst, orders, plan,
                                          pkey, sig_slots)
            for idx, inst, orders, plan, pkey, sig_slots in node_templates]

        self.write_buffers: List[SlotBuffer] = [
            new_buffer(order) for order in write_orders]
        #: Last (value, final) forwarded per write slot, and its wave.
        self.write_forwarded: List[Optional[Tuple[int, bool]]] = (
            [None] * len(block.writes))
        self.write_fwd_wave: List[int] = [0] * len(block.writes)
        #: Younger frame uids subscribed to each write slot.
        self.subscribers: List[List[int]] = [[] for _ in block.writes]

        self.branch_buffer = new_buffer(branch_order)

        self.read_sources: List[ReadSource] = []
        self.read_forwards: List[ReadForward] = [
            ReadForward() for _ in block.reads]

        #: Shared, read-only index dicts from the block template.
        self.lsid_to_index: Dict[int, int] = lsid_to_index
        self.write_index_of_reg: Dict[int, int] = write_index_of_reg

        #: What the fetch engine predicted this block's successor to be.
        self.predicted_next: Optional[str] = None
        #: Block name actually fetched after this frame (for redirects).
        self.fetched_next: Optional[str] = None
        self.mapped_cycle = 0
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
        self.read_sources = []
        for fwd in self.read_forwards:
            fwd.wave = 0
            fwd.value = None
            fwd.final = False
        self.predicted_next = None
        self.fetched_next = None
        self.mapped_cycle = 0
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

    def outputs_produced(self) -> bool:
        """Flush-recovery commit gate: completion only.

        Under flush recovery no produced value can ever change (a detected
        mis-speculation squashes the frame instead), so a block may commit
        as soon as every output exists.
        """
        if self.branch_label is None:
            return False
        return all(b.status is STATUS_VALUE for b in self.write_buffers)

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
