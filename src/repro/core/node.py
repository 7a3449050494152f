"""Per-instruction dataflow node: the selective re-execution state machine.

A node wraps one mapped instruction of one in-flight frame.  It owns a
token buffer (:mod:`repro.core.buffers`) per required operand slot and
implements the three rules of the DSRE protocol:

**Fire rule** — a node issues when every required slot is resolved and its
current effective inputs differ from the inputs of its last issue.  The
first condition gives ordinary dataflow firing; the second gives *selective
re-execution*: only nodes whose inputs actually changed re-fire, and a
re-fired node tags its outputs with a higher wave.

**Suppression rule** — a re-execution that recomputes the *same* output does
not emit tokens, so a speculative wave dies out at the first instruction
whose value is unaffected (this is what keeps DSRE cheap relative to a
flush).

**Commit rule** — once all input slots are final and the node's last
execution used exactly those final inputs, the node's output is final and a
commit-wave token is emitted (or, if the value was already sent and inputs
were final at that time, the original token was already marked final —
``eager finality``).  Loads are the exception: their finality additionally
requires LSQ confirmation, which is the paper's load-speculation resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..isa.instruction import (SLOT_OP0, SLOT_OP1, SLOT_PRED, Instruction,
                               Slot)
from ..isa.opcodes import Opcode
from ..isa.semantics import alu_callable, effective_address
from ..isa.values import WORD_MASK
from ..isa.values import is_true, to_unsigned
from .buffers import SlotBuffer, new_buffer
from .tokens import (STATUS_ALL_NULL, STATUS_EMPTY, STATUS_VALUE,
                     ProducerKey, Token, TokenValue)

#: Signature of an issue: per required slot, the (producer, wave) that fed it
#: (``None`` entries stand for ALL_NULL slots).
IssueSignature = Tuple[Tuple[Slot, Optional[Tuple[ProducerKey, int]]], ...]


class OutcomeKind(enum.Enum):
    NULL = "null"              # predicated off (or null inputs): emit NULLs
    VALUE = "value"            # a computed value: emit to targets
    LOAD_REQUEST = "load"      # address ready: hand to the LSQ
    STORE_UPDATE = "store"     # address+data ready: hand to the LSQ
    BRANCH = "branch"          # block exit target resolved


#: The members bound once as module constants (docs/PERFORMANCE.md §12).
OUT_NULL = OutcomeKind.NULL
OUT_VALUE = OutcomeKind.VALUE
OUT_LOAD_REQUEST = OutcomeKind.LOAD_REQUEST
OUT_STORE_UPDATE = OutcomeKind.STORE_UPDATE
OUT_BRANCH = OutcomeKind.BRANCH


@dataclass(slots=True)
class Outcome:
    """What one node execution produced."""

    kind: OutcomeKind
    value: TokenValue = None   # VALUE result / branch label
    addr: int = 0              # LOAD_REQUEST / STORE_UPDATE
    store_value: int = 0       # STORE_UPDATE


class NodeState(enum.Enum):
    IDLE = "idle"              # waiting for operands (or for a re-fire)
    EXECUTING = "executing"    # occupying a functional unit


NODE_IDLE = NodeState.IDLE
NODE_EXECUTING = NodeState.EXECUTING


_NULL_OUTCOME = Outcome(OUT_NULL)


#: Outcome-dispatch codes precomputed per static instruction.
_PLAN_BRANCH = 0
_PLAN_LOAD = 1
_PLAN_STORE = 2
_PLAN_MOVI = 3
_PLAN_ALU = 4


def _exec_plan(inst: Instruction) -> Tuple:
    """Static dispatch data for ``_compute_outcome``: the outcome kind,
    predicate sense, address immediate, unsigned value immediate, the
    resolved ALU callable (compute opcodes only — one call per execution
    instead of an enum-keyed dispatch, whose Python-level ``__hash__``
    shows up at this frequency) and branch target — everything that never
    changes between waves."""
    opcode = inst.opcode
    alu = None
    if opcode is Opcode.BRO:
        kind = _PLAN_BRANCH
    elif opcode is Opcode.LOAD:
        kind = _PLAN_LOAD
    elif opcode is Opcode.STORE:
        kind = _PLAN_STORE
    elif opcode is Opcode.MOVI:
        kind = _PLAN_MOVI
    else:
        kind = _PLAN_ALU
        alu = alu_callable(opcode)
    imm = inst.imm
    imm_u = to_unsigned(imm) if imm is not None else None
    return (kind, inst.pred, imm or 0, imm_u, alu, inst.branch_target)


class InstructionNode:
    """One instruction of one in-flight frame."""

    __slots__ = (
        "frame_uid", "index", "inst", "_buffers", "state",
        "exec_count", "out_wave", "issued_signature", "last_outcome",
        "last_sent", "final_emitted", "lsq_value", "lsq_value_wave",
        "exec_useful", "last_lsq", "_buffer_list", "_sig_slots",
        "_buf_by_val", "_op0_buf", "_op1_buf", "_pred_buf", "_sig_cache",
        "_plan", "_producer_key", "life",
    )

    def __init__(self, frame_uid: int, index: int, inst: Instruction,
                 slot_producers: Dict[Slot, List[ProducerKey]]):
        self.frame_uid = frame_uid
        self.index = index
        self.inst = inst
        buffers: Dict[Slot, SlotBuffer] = {}
        for slot in inst.required_slots():
            producers = slot_producers.get(slot)
            if not producers:
                raise SimulationError(
                    f"I{index} slot {slot.name} mapped with no producers")
            buffers[slot] = new_buffer(
                {p: n for n, p in enumerate(producers)})
        self._buffers = buffers
        self._finish_init()

    @classmethod
    def from_template(cls, frame_uid: int, index: int, inst: Instruction,
                      slot_orders, plan, producer_key,
                      sig_slots) -> "InstructionNode":
        """Fast construction from a prevalidated frame template.

        ``slot_orders`` is a tuple of (slot value, shared producer-order
        dict) pairs in slot-value order — see :func:`build_node_template`.
        Mapping a frame builds every node of the block through here, so
        this duplicates ``_finish_init`` inline rather than paying
        per-node calls; the ``buffers`` dict view is materialised lazily
        (cold paths only).
        """
        node = cls.__new__(cls)
        node.frame_uid = frame_uid
        node.index = index
        node.inst = inst
        buffer_list = []
        buf_by_val = {}
        for val, order in slot_orders:
            buf = new_buffer(order)
            buffer_list.append(buf)
            buf_by_val[val] = buf
        node._buffers = None
        node._buffer_list = buffer_list
        node._sig_slots = sig_slots
        node._buf_by_val = buf_by_val
        node._op0_buf = buf_by_val.get(0)
        node._op1_buf = buf_by_val.get(1)
        node._pred_buf = buf_by_val.get(2)
        node._plan = plan
        node._producer_key = producer_key
        node._sig_cache = None
        node.life = 0
        node.state = NODE_IDLE
        node.exec_count = 0
        node.out_wave = 0
        node.issued_signature = None
        node.last_outcome = None
        node.last_sent = None
        node.final_emitted = False
        node.lsq_value = None
        node.lsq_value_wave = 0
        node.exec_useful = 0
        node.last_lsq = None
        return node

    @property
    def buffers(self) -> Dict[Slot, SlotBuffer]:
        """Slot -> buffer mapping (cold paths; built lazily per node)."""
        d = self._buffers
        if d is None:
            d = dict(zip(self._sig_slots, self._buffer_list))
            self._buffers = d
        return d

    def _finish_init(self) -> None:
        # Hot-path views of ``buffers``: the plain value list and slot
        # tuple in signature order (sorted by slot value), and an
        # int-keyed map that avoids hashing Slot enum members per deposit.
        pairs = sorted(self._buffers.items(), key=lambda kv: kv[0].value)
        self._buffer_list = [buf for _, buf in pairs]
        self._sig_slots = tuple(slot for slot, _ in pairs)
        self._buf_by_val = {slot._value_: buf for slot, buf in pairs}
        self._op0_buf = self._buf_by_val.get(SLOT_OP0._value_)
        self._op1_buf = self._buf_by_val.get(SLOT_OP1._value_)
        self._pred_buf = self._buf_by_val.get(SLOT_PRED._value_)
        self._plan = _exec_plan(self.inst)
        self._producer_key = ("inst", self.index)
        self._sig_cache: Optional[IssueSignature] = None
        #: Dynamic-instance generation counter for arena recycling: bumped
        #: by every ``reset_for_reuse`` so stale tile-heap entries (tagged
        #: with the life they were pushed under) are recognisably dead.
        self.life = 0
        self.state = NODE_IDLE
        self.exec_count = 0            # times through a functional unit
        self.out_wave = 0              # output generation counter
        self.issued_signature: Optional[IssueSignature] = None
        self.last_outcome: Optional[Outcome] = None
        #: (value, final) of the last token batch actually sent, or None.
        self.last_sent: Optional[Tuple[TokenValue, bool]] = None
        self.final_emitted = False
        #: Latest value the LSQ returned for this load (loads only).
        self.lsq_value: Optional[int] = None
        self.lsq_value_wave = 0
        self.exec_useful = 0           # executions that produced non-null
        #: Last (addr, value, null, final) shipped to the LSQ (dedup).
        self.last_lsq: Optional[Tuple] = None

    def reset_for_reuse(self, frame_uid: int) -> None:
        """Return this node to its just-mapped state (arena recycling).

        Mirrors exactly the mutable-state initialisation of
        ``from_template``/``_finish_init``: everything a fresh node starts
        with is restored, everything static (instruction, plan, producer
        key, buffer wiring) is kept, and ``life`` is bumped so heap
        entries pushed under the previous life are recognisably stale.
        A recycled node must leak no state — asserted end-to-end by
        ``tests/test_arena.py``.
        """
        self.frame_uid = frame_uid
        self.life += 1
        for buffer in self._buffer_list:
            buffer.reset()
        self._sig_cache = None
        self.state = NODE_IDLE
        self.exec_count = 0
        self.out_wave = 0
        self.issued_signature = None
        self.last_outcome = None
        self.last_sent = None
        self.final_emitted = False
        self.lsq_value = None
        self.lsq_value_wave = 0
        self.exec_useful = 0
        self.last_lsq = None

    # ------------------------------------------------------------------
    # Input side
    # ------------------------------------------------------------------

    def deposit(self, token: Token) -> bool:
        """Absorb an operand token; True if the node may need (re-)issuing
        or finalising."""
        slot = token.dest[2]
        buffer = (self._buf_by_val.get(slot._value_)
                  if slot is not None else None)
        if buffer is None:
            raise SimulationError(f"token to unmapped slot: {token}")
        self._sig_cache = None
        effective_changed, finality_changed = buffer.deposit(token)
        return effective_changed or finality_changed

    def inputs_final(self) -> bool:
        for b in self._buffer_list:
            if not b.final:
                return False
        return True

    def current_signature(self) -> IssueSignature:
        # Buffer state only changes through deposit(), which clears the
        # cache; between deposits the signature is immutable.
        sig = self._sig_cache
        if sig is not None:
            return sig
        # Positional entries (``_sig_slots`` order is fixed per node, so
        # the slot tags carry no information): ``(producer, wave)`` for a
        # resolved value, ``None`` otherwise.  Equality between two
        # signatures of the same node is unchanged by the slimmer shape.
        parts = []
        for buffer in self._buffer_list:
            if buffer.status is STATUS_VALUE:
                parts.append((buffer.producer, buffer.wave))
            else:
                parts.append(None)
        sig = tuple(parts)
        self._sig_cache = sig
        return sig

    # ------------------------------------------------------------------
    # Fire rule
    # ------------------------------------------------------------------

    def can_issue(self) -> bool:
        if self.state is not NODE_IDLE:
            return False
        for b in self._buffer_list:
            if b.status is STATUS_EMPTY:
                return False
        return self.exec_count == 0 \
            or self.current_signature() != self.issued_signature

    def begin_execution(self) -> None:
        if not self.can_issue():
            raise SimulationError(f"I{self.index} issued while not ready")
        self._begin_issued()

    def _begin_issued(self) -> None:
        """Issue without revalidating (caller just checked ``can_issue``)."""
        self.state = NODE_EXECUTING
        self.issued_signature = self.current_signature()
        self.exec_count += 1

    def complete_execution(self) -> Outcome:
        """Finish the FU pass and compute the outcome from the issued inputs.

        The outcome is computed from the *current* buffer contents of the
        issued signature's producers; since waves are per-producer monotonic
        and signatures pin (producer, wave), the values cannot have mutated
        underneath us without changing the signature (in which case the
        processor immediately re-issues).
        """
        if self.state is not NODE_EXECUTING:
            raise SimulationError(
                f"I{self.index} completed while not executing")
        self.state = NODE_IDLE
        outcome = self._compute_outcome()
        self.last_outcome = outcome
        if outcome.kind is not OUT_NULL:
            self.exec_useful += 1
        return outcome

    def _buf_value(self, buffer: Optional[SlotBuffer], slot: Slot) -> int:
        if buffer is None:
            raise KeyError(slot)
        return buffer.value if buffer.status is STATUS_VALUE else 0

    def _compute_outcome(self) -> Outcome:
        for buffer in self._buffer_list:
            if buffer.status is STATUS_ALL_NULL:
                return _NULL_OUTCOME
        # Static per-instruction dispatch data, precomputed once (see
        # ``_exec_plan``): avoids the opcode-property chain per execution.
        kind, pred, addr_imm, imm_u, alu, branch_target = self._plan
        if pred is not None:
            if is_true(self._buf_value(self._pred_buf, SLOT_PRED)) != pred:
                return _NULL_OUTCOME
        # Positional arguments: (kind, value, addr, store_value).
        if kind == _PLAN_ALU:
            op0 = self._buf_value(self._op0_buf, SLOT_OP0)
            if imm_u is not None:
                op1 = imm_u
            elif self._op1_buf is not None:
                op1 = self._buf_value(self._op1_buf, SLOT_OP1)
            else:
                op1 = 0
            return Outcome(OUT_VALUE,
                           alu(op0 & WORD_MASK, op1 & WORD_MASK))
        if kind == _PLAN_LOAD:
            addr = effective_address(
                self._buf_value(self._op0_buf, SLOT_OP0), addr_imm)
            return Outcome(OUT_LOAD_REQUEST, None, addr)
        if kind == _PLAN_STORE:
            addr = effective_address(
                self._buf_value(self._op0_buf, SLOT_OP0), addr_imm)
            return Outcome(OUT_STORE_UPDATE, None, addr,
                           self._buf_value(self._op1_buf, SLOT_OP1))
        if kind == _PLAN_BRANCH:
            return Outcome(OUT_BRANCH, branch_target)
        return Outcome(OUT_VALUE,                 # MOVI
                       imm_u if imm_u is not None
                       else to_unsigned(self.inst.imm))

    # ------------------------------------------------------------------
    # Output side: suppression + commit rules
    # ------------------------------------------------------------------

    def plan_emission(self, value: TokenValue,
                      final: bool) -> Optional[Tuple[int, TokenValue, bool]]:
        """Apply the suppression rule.

        Returns ``(wave, value, final)`` for the token batch to send, or
        ``None`` when nothing new would reach consumers.  A changed value
        gets a fresh wave; a pure finality upgrade reuses the last wave.
        """
        if self.final_emitted:
            return None
        if self.last_sent is not None and self.last_sent[0] == value:
            if self.last_sent[1] or not final:
                return None
            self.last_sent = (value, True)
            self.final_emitted = True
            return (self.out_wave, value, True)
        self.out_wave += 1
        self.last_sent = (value, final)
        if final:
            self.final_emitted = True
        return (self.out_wave, value, final)

    def output_final_ready(self) -> bool:
        """Commit rule for non-load nodes (loads go through LSQ confirm)."""
        return (self.state is NODE_IDLE
                and self.exec_count > 0
                and self.inputs_final()
                and self.issued_signature == self.current_signature())

    def addr_inputs_final(self) -> bool:
        """For memory nodes: the address (OP0) and predicate are final.

        A store whose *address* is final can already be disambiguated
        against loads even while its data is still speculative — the LSQ
        uses this to confirm non-overlapping loads without waiting for the
        store's data chain to commit.
        """
        if self.state is not NODE_IDLE or self.exec_count == 0:
            return False
        if self.issued_signature != self.current_signature():
            return False
        for buffer in (self._op0_buf, self._pred_buf):
            if buffer is not None and not buffer.final:
                return False
        return True


def build_node_template(index: int, inst: Instruction,
                        slot_producers: Dict[Slot, List[ProducerKey]]):
    """Precompute one instruction's node-construction data.

    Runs the same validation as ``InstructionNode.__init__`` but once per
    static block instead of once per frame; the producer-order dicts it
    builds are shared (read-only) by every frame's buffers.
    """
    orders = []
    for slot in inst.required_slots():
        producers = slot_producers.get(slot)
        if not producers:
            raise SimulationError(
                f"I{index} slot {slot.name} mapped with no producers")
        orders.append((slot, slot._value_,
                       {p: n for n, p in enumerate(producers)}))
    # Signature order is ascending slot value; required_slots() already
    # yields that order, the sort is belt-and-braces for exotic ISAs.
    orders.sort(key=lambda t: t[1])
    sig_slots = tuple(slot for slot, _, _ in orders)
    return (index, inst, tuple((val, order) for _, val, order in orders),
            _exec_plan(inst), ("inst", index), sig_slots)
