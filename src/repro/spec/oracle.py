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

from typing import Dict, Iterable, Optional

from ..arch.trace import ExecutionTrace
from .policy import LSID_BITS, DependencePolicy, LoadQuery, StoreView


class OraclePolicy(DependencePolicy):
    """Loads wait exactly for their true producing store."""

    name = "oracle"
    waits_for_producer = True

    def __init__(self, trace: ExecutionTrace):
        #: Load order key -> its producing store's order key, for the
        #: loads that have one.
        self._deps: Dict[int, int] = {
            (seq << LSID_BITS) | lsid: (src[0] << LSID_BITS) | src[1]
            for (seq, lsid), src in trace.load_dependences().items()
            if src is not None}
        #: Block name per dynamic index, to detect wrong-path queries.
        self._names = [r.name for r in trace.records]

    def on_correct_path(self, load: LoadQuery) -> bool:
        return (load.seq < len(self._names)
                and self._names[load.seq] == load.static_id[0])

    def producer_key(self, load: LoadQuery) -> Optional[int]:
        """The producing store's order key; ``None`` off the correct
        path or when no store produced the load's value."""
        if not self.on_correct_path(load):
            return None
        return self._deps.get((load.seq << LSID_BITS) | load.lsid)

    def should_wait(self, load: LoadQuery,
                    older_stores: Iterable[StoreView]) -> bool:
        # The reference form over a materialised view; the LSQ looks
        # the producer up by its order key instead (waits_for_producer).
        key = self.producer_key(load)
        if key is None:
            return False
        for store in older_stores:
            if (store.seq << LSID_BITS) | store.lsid == key:
                return not store.resolved
        return False
