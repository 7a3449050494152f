"""Perfect-oracle load issue policy.

Built from the golden trace: each dynamic load (identified by its frame's
dynamic block index and LSID) knows the exact dynamic store that produced
its value.  The load waits only when that store is an *older in-flight,
unresolved* store; every other load issues immediately.  This is the
paper's "perfect oracle directing the issue of loads" upper bound.

Off the correct control path (after a block misprediction) the oracle has
no information and issues aggressively — those loads are squashed anyway.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..arch.trace import DynStoreId, ExecutionTrace
from .policy import DependencePolicy, LoadQuery, StoreView


class OraclePolicy(DependencePolicy):
    """Loads wait exactly for their true producing store."""

    name = "oracle"

    def __init__(self, trace: ExecutionTrace):
        self._deps: Dict[Tuple[int, int], Optional[DynStoreId]] = (
            trace.load_dependences())
        #: Block name per dynamic index, to detect wrong-path queries.
        self._names = [r.name for r in trace.records]

    def on_correct_path(self, load: LoadQuery) -> bool:
        return (load.seq < len(self._names)
                and self._names[load.seq] == load.static_id[0])

    def should_wait(self, load: LoadQuery,
                    older_stores: Iterable[StoreView]) -> bool:
        if not self.on_correct_path(load):
            return False
        src = self._deps.get((load.seq, load.lsid))
        if src is None:
            return False
        src_seq, src_lsid = src
        for store in older_stores:
            if store.seq == src_seq and store.lsid == src_lsid:
                return not store.resolved
        return False
