"""EDGE block representation and validation.

A block is the atomic unit of fetch, map, execute and commit.  Its interface
to the rest of the machine consists of:

* **read slots** — architectural registers injected into the dataflow graph
  when the block is mapped;
* **write slots** — architectural registers produced by the block;
* **memory operations** — loads/stores ordered by LSID;
* **one taken branch** — exactly one ``BRO`` produces a non-null successor.

Inside the block, instructions communicate only through direct targets.
``Block.validate`` enforces the structural EDGE constraints, and
``Block.slot_producers`` precomputes, for every operand slot and write slot,
the set of static producers — the key piece of metadata the DSRE protocol's
multi-producer token buffers are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BlockValidationError
from .instruction import Instruction, Slot, Target, TargetKind
from .limits import DEFAULT_LIMITS, LEGAL_WIDTHS, NUM_REGS, BlockLimits
from .opcodes import Opcode, op_info

#: A producer of a token: either a register-read slot or an instruction.
#: ``("read", i)`` is read slot *i*; ``("inst", i)`` is instruction *i*.
ProducerId = Tuple[str, int]

#: A consumption point: an instruction operand slot or a write slot.
#: ``("inst", i, slot)`` or ``("write", i, None)``.
ConsumerKey = Tuple[str, int, Optional[Slot]]


@dataclass
class ReadSlot:
    """A block register read: injects register ``reg`` into the dataflow."""

    reg: int
    targets: List[Target] = field(default_factory=list)


@dataclass
class WriteSlot:
    """A block register write: receives the value for register ``reg``."""

    reg: int


class Block:
    """A validated EDGE block.

    Construct via the builder DSL (:mod:`repro.isa.builder`) or the text
    assembler, then call :meth:`validate` (the builders do this for you).
    """

    def __init__(self, name: str,
                 reads: Optional[Sequence[ReadSlot]] = None,
                 writes: Optional[Sequence[WriteSlot]] = None,
                 instructions: Optional[Sequence[Instruction]] = None,
                 limits: BlockLimits = DEFAULT_LIMITS):
        self.name = name
        self.reads: List[ReadSlot] = list(reads or [])
        self.writes: List[WriteSlot] = list(writes or [])
        self.instructions: List[Instruction] = list(instructions or [])
        self.limits = limits
        self._slot_producers: Optional[
            Dict[ConsumerKey, List[ProducerId]]] = None
        #: Frame-construction template (see repro.uarch.frame); derived
        #: state owned here so block mutation can invalidate it.
        self._frame_template = None
        #: LSQ registration template (see repro.uarch.lsq).
        self._lsq_template = None
        #: Compiled activation plans, one per machine point (bounded
        #: LRU; see repro.uarch.specialize).
        self._plan_cache = None
        #: Compiled golden-model plan (see repro.arch.interp).
        self._golden_plan = None
        #: Set by a successful :meth:`validate`; mutation goes through the
        #: builders, which call :meth:`invalidate_caches` (clearing this),
        #: so re-validating an unchanged block is a no-op.  This is what
        #: keeps the derived caches above alive across processor
        #: constructions — each ``Processor.__init__`` re-validates its
        #: program defensively.
        self._validated = False

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    @property
    def load_lsids(self) -> List[int]:
        """LSIDs of loads, in ascending order."""
        return sorted(i.lsid for i in self.instructions if i.is_load)

    @property
    def store_lsids(self) -> List[int]:
        """LSIDs of stores, in ascending order."""
        return sorted(i.lsid for i in self.instructions if i.is_store)

    @property
    def branch_indices(self) -> List[int]:
        """Indices of branch instructions."""
        return [i for i, ins in enumerate(self.instructions) if ins.is_branch]

    @property
    def successors(self) -> List[str]:
        """The distinct block labels this block may branch to."""
        out: List[str] = []
        for ins in self.instructions:
            if ins.is_branch and ins.branch_target not in out:
                out.append(ins.branch_target)
        return out

    def instruction_of_lsid(self, lsid: int) -> int:
        """Index of the memory instruction carrying ``lsid``."""
        for i, ins in enumerate(self.instructions):
            if ins.is_memory and ins.lsid == lsid:
                return i
        raise KeyError(f"block {self.name}: no memory op with lsid {lsid}")

    @property
    def slot_producers(self) -> Dict[ConsumerKey, List[ProducerId]]:
        """Map every consumption point to its static producer set.

        The DSRE token buffers need to know, for each operand slot, the full
        set of producers that may ever send a token there (several predicated
        producers may target the same slot; exactly one delivers a non-null
        token in any converged execution).
        """
        if self._slot_producers is None:
            producers: Dict[ConsumerKey, List[ProducerId]] = {}
            for ri, read in enumerate(self.reads):
                for tgt in read.targets:
                    producers.setdefault(_consumer_key(tgt),
                                         []).append(("read", ri))
            for ii, ins in enumerate(self.instructions):
                for tgt in ins.targets:
                    producers.setdefault(_consumer_key(tgt),
                                         []).append(("inst", ii))
            self._slot_producers = producers
        return self._slot_producers

    def invalidate_caches(self) -> None:
        """Drop derived structures after mutating the block (builders only)."""
        self._slot_producers = None
        self._frame_template = None
        self._lsq_template = None
        self._plan_cache = None
        self._golden_plan = None
        self._validated = False

    def __getstate__(self):
        """Pickle without the process-local derived caches.

        The frame template and the plans hold ALU lambdas, which cannot
        be pickled, and a copy in another process rebuilds all four
        caches on first use anyway.  ``_slot_producers`` and
        ``_validated`` describe the block's own content and travel with
        it.
        """
        state = self.__dict__.copy()
        for name in ("_frame_template", "_lsq_template", "_plan_cache",
                     "_golden_plan"):
            state[name] = None
        return state

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural EDGE constraint; raise on violation."""
        if self._validated:
            return
        self.invalidate_caches()
        lim = self.limits
        err = lambda msg: (_ for _ in ()).throw(
            BlockValidationError(f"block {self.name!r}: {msg}"))

        if not self.name:
            err("empty block name")
        if len(self.instructions) > lim.max_instructions:
            err(f"{len(self.instructions)} instructions "
                f"(limit {lim.max_instructions})")
        if len(self.reads) > lim.max_reads:
            err(f"{len(self.reads)} read slots (limit {lim.max_reads})")
        if len(self.writes) > lim.max_writes:
            err(f"{len(self.writes)} write slots (limit {lim.max_writes})")

        self._validate_interface(err)
        self._validate_instructions(err)
        self._validate_wiring(err)
        self._validate_acyclic(err)
        self._validated = True

    def _validate_interface(self, err) -> None:
        seen_write_regs = set()
        for w in self.writes:
            if not 0 <= w.reg < NUM_REGS:
                err(f"write slot register R{w.reg} out of range")
            if w.reg in seen_write_regs:
                err(f"register R{w.reg} written by two write slots")
            seen_write_regs.add(w.reg)
        seen_read_regs = set()
        for r in self.reads:
            if not 0 <= r.reg < NUM_REGS:
                err(f"read slot register R{r.reg} out of range")
            if r.reg in seen_read_regs:
                err(f"register R{r.reg} read by two read slots")
            seen_read_regs.add(r.reg)

    def _validate_instructions(self, err) -> None:
        mem_ops = [i for i in self.instructions if i.is_memory]
        if len(mem_ops) > self.limits.max_memory_ops:
            err(f"{len(mem_ops)} memory ops "
                f"(limit {self.limits.max_memory_ops})")
        lsids = [i.lsid for i in mem_ops]
        if any(lsid is None for lsid in lsids):
            err("memory op without an LSID")
        if len(set(lsids)) != len(lsids):
            err(f"duplicate LSIDs: {sorted(lsids)}")
        if lsids and (min(lsids) < 0
                      or max(lsids) >= self.limits.max_memory_ops):
            err(f"LSID out of range 0..{self.limits.max_memory_ops - 1}")
        for i in mem_ops:
            if i.width not in LEGAL_WIDTHS:
                err(f"illegal memory width {i.width}")

        branches = [i for i in self.instructions if i.is_branch]
        if not branches:
            err("no branch instruction (blocks must name a successor)")
        for b in branches:
            if not b.branch_target:
                err("branch with no target label")
        if len(branches) > 1 and any(b.pred is None for b in branches):
            err("multiple branches require all branches to be predicated")

        for idx, ins in enumerate(self.instructions):
            info = op_info(ins.opcode)
            if ins.imm is not None and ins.opcode is not Opcode.MOVI \
                    and not ins.is_memory and not info.allows_imm:
                err(f"I{idx} ({ins.opcode.value}) does not allow an immediate")
            if ins.is_store and ins.targets:
                err(f"I{idx}: stores carry no dataflow targets")
            if ins.is_branch and ins.targets:
                err(f"I{idx}: branches carry no dataflow targets")
            if ins.lsid is not None and not ins.is_memory:
                err(f"I{idx}: LSID on a non-memory opcode")

    def _validate_wiring(self, err) -> None:
        n = len(self.instructions)
        for origin, targets in self._iter_target_lists():
            for tgt in targets:
                if tgt.kind is TargetKind.WRITE:
                    if not 0 <= tgt.index < len(self.writes):
                        err(f"{origin} targets missing write "
                            f"slot W{tgt.index}")
                    continue
                if not 0 <= tgt.index < n:
                    err(f"{origin} targets missing instruction I{tgt.index}")
                consumer = self.instructions[tgt.index]
                if tgt.slot not in consumer.required_slots():
                    err(f"{origin} targets "
                        f"I{tgt.index}.{tgt.slot.name.lower()} "
                        f"which {consumer.opcode.value} does not consume")

        producers = self.slot_producers
        for idx, ins in enumerate(self.instructions):
            for slot in ins.required_slots():
                if ("inst", idx, slot) not in producers:
                    err(f"I{idx} ({ins.opcode.value}) slot "
                        f"{slot.name.lower()} has no producer")
        for wi in range(len(self.writes)):
            if ("write", wi, None) not in producers:
                err(f"write slot W{wi} (R{self.writes[wi].reg}) "
                    f"has no producer")

    def _validate_acyclic(self, err) -> None:
        """The intra-block dataflow graph must be a DAG (else it deadlocks)."""
        n = len(self.instructions)
        adj: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for ii, ins in enumerate(self.instructions):
            for tgt in ins.targets:
                if tgt.kind is TargetKind.INST:
                    adj[ii].append(tgt.index)
                    indeg[tgt.index] += 1
        ready = [i for i in range(n) if indeg[i] == 0]
        visited = 0
        while ready:
            node = ready.pop()
            visited += 1
            for succ in adj[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if visited != n:
            cyclic = [i for i in range(n) if indeg[i] > 0]
            err(f"dataflow cycle through instructions {cyclic}")

    def _iter_target_lists(self):
        for ri, read in enumerate(self.reads):
            yield f"read R{read.reg} (slot {ri})", read.targets
        for ii, ins in enumerate(self.instructions):
            yield f"I{ii}", ins.targets

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f".block {self.name}"]
        for ri, r in enumerate(self.reads):
            tl = ", ".join(str(t) for t in r.targets)
            lines.append(f"  read[{ri}] R{r.reg} => {tl}")
        for ii, ins in enumerate(self.instructions):
            lines.append(f"  I{ii}: {ins}")
        for wi, w in enumerate(self.writes):
            lines.append(f"  write[{wi}] R{w.reg}")
        return "\n".join(lines)


def _consumer_key(target: Target) -> ConsumerKey:
    if target.kind is TargetKind.WRITE:
        return ("write", target.index, None)
    return ("inst", target.index, target.slot)
