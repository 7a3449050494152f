"""Dynamic execution trace records.

The golden-model interpreter emits one :class:`BlockRecord` per dynamic
block.  The trace serves three purposes:

* the **perfect oracle** dependence policy reads each load's true producing
  store from it;
* the timing simulator validates its committed state **block-by-block**
  against the trace when ``check_with_golden`` is enabled;
* workload characterisation (table T2) is computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Identifies a dynamic store: (dynamic block index, lsid).
DynStoreId = Tuple[int, int]


@dataclass
class LoadRecord:
    """One dynamic load."""

    lsid: int
    addr: int
    width: int
    value: int
    #: Youngest dynamic store that wrote any byte this load read, or None
    #: if every byte came from the initial memory image.
    src_store: Optional[DynStoreId]
    #: True when the load's bytes came from more than one writer.
    multi_writer: bool = False


@dataclass
class StoreRecord:
    """One dynamic store (nullified stores are not recorded)."""

    lsid: int
    addr: int
    width: int
    value: int


@dataclass
class BlockRecord:
    """One dynamic block execution."""

    index: int                        # dynamic block sequence number
    name: str
    next_block: str
    reg_writes: Dict[int, int] = field(default_factory=dict)
    loads: List[LoadRecord] = field(default_factory=list)
    stores: List[StoreRecord] = field(default_factory=list)
    executed: int = 0                 # instructions producing real results
    nulled: int = 0                   # instructions that emitted NULL


@dataclass
class ExecutionTrace:
    """The complete dynamic history of a functional run."""

    records: List[BlockRecord] = field(default_factory=list)
    halted: bool = False

    @property
    def block_count(self) -> int:
        return len(self.records)

    @property
    def dynamic_instructions(self) -> int:
        """Committed useful (non-null) instruction executions."""
        return sum(r.executed for r in self.records)

    @property
    def dynamic_loads(self) -> int:
        return sum(len(r.loads) for r in self.records)

    @property
    def dynamic_stores(self) -> int:
        return sum(len(r.stores) for r in self.records)

    def load_dependences(self) -> Dict[Tuple[int, int], Optional[DynStoreId]]:
        """Map each dynamic load (block index, lsid) to its producing store."""
        deps: Dict[Tuple[int, int], Optional[DynStoreId]] = {}
        for rec in self.records:
            for load in rec.loads:
                deps[(rec.index, load.lsid)] = load.src_store
        return deps

    def dependence_distance_histogram(self) -> Dict[int, int]:
        """Histogram of (load block index - producing store block index).

        Distance 0 is in-block forwarding; larger distances are cross-block
        dependences that stress the LSQ and dependence predictor.  Loads with
        no producing store are excluded.
        """
        hist: Dict[int, int] = {}
        for rec in self.records:
            for load in rec.loads:
                if load.src_store is None:
                    continue
                dist = rec.index - load.src_store[0]
                hist[dist] = hist.get(dist, 0) + 1
        return hist
