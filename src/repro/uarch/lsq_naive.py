"""Naive reference LSQ: the original full-scan ordering queries.

:class:`NaiveLoadStoreQueue` shares every event-handling rule with
:class:`~repro.uarch.lsq.LoadStoreQueue` but answers every ordering query
by scanning all in-flight entries, exactly as the pre-index implementation
did.  It exists so the property tests (``tests/test_lsq_index.py``) can run
the same program through both implementations and assert bit-identical
action streams — the indexed hot path is only trusted because this class
keeps disagreeing with nothing.

It is O(entries) per event and must never be used by the harness proper.

It does not count certificate triggers: its ``_must_wait`` never adds to
``InvarianceCertificate.policy_windows``, so its certificate differs from
the indexed LSQ's wherever a policy window occurs.  The differential test
compares action streams, ``LsqStats``, ``SimStats`` and final state;
``tests/test_specialize.py`` pins the indexed LSQ's certificates.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..spec.policy import LoadQuery, StoreView
from .lsq import LoadStoreQueue, MemEntry, MemKind


class NaiveLoadStoreQueue(LoadStoreQueue):
    """Scan-everything LSQ used as the differential-testing reference."""

    # The index-maintenance hooks of the base class still run (they are
    # cheap and keep drop/commit shared); this class simply never consults
    # the indexes they maintain.

    def _all_entries(self) -> Iterable[MemEntry]:
        for uid in self._frame_order:
            entries = self._frames[uid]
            for lsid in sorted(entries):
                yield entries[lsid]

    def _stores_older_than(self, key: int,
                           newest_first: bool = True) -> List[MemEntry]:
        stores = [e for e in self._all_entries()
                  if e.kind is MemKind.STORE and e.order_key < key]
        if newest_first:
            stores.reverse()
        return stores

    # --- Ordering queries, answered by scans --------------------------

    def speculative_value(self, load: MemEntry
                          ) -> Tuple[int, bool, bool, Optional[MemEntry]]:
        assert load.addr is not None
        stores = [s for s in self._stores_older_than(load.order_key)
                  if not s.null and s.addr is not None]
        return self._assemble_bytes(load, stores)

    def _policy_view(self, load: MemEntry) -> Sequence[StoreView]:
        return [StoreView(s.static_id, s.seq, s.lsid, s.store_resolved)
                for s in self._stores_older_than(load.order_key,
                                                 newest_first=False)]

    def _must_wait(self, entry: MemEntry) -> bool:
        # Always materialise the query and view and ask the policy — no
        # trait shortcuts — so the indexed fast paths are checked against
        # the policy's actual answer.
        query = LoadQuery(entry.static_id, entry.seq, entry.lsid,
                          entry.addr, entry.width)
        if self.policy.should_wait(query, self._policy_view(entry)):
            return True
        if (entry.seq, entry.static_id) in self._poisoned:
            return any(not s.store_resolved
                       for s in self._stores_older_than(entry.order_key))
        return False

    def _recheck_candidates(self, store: MemEntry, old_addr: Optional[int],
                            old_width: int) -> List[MemEntry]:
        return [e for e in self._all_entries()
                if e.kind is MemKind.LOAD and e.order_key > store.order_key
                and e.issued and not e.null]

    def _wake_candidates(self, store: MemEntry) -> List[MemEntry]:
        return [e for e in list(self._all_entries())
                if e.kind is MemKind.LOAD
                and e.order_key > store.order_key]

    def _confirm_gate_stores(self, load: MemEntry) -> List[MemEntry]:
        return self._stores_older_than(load.order_key)

    def epoch_mem_final(self, epoch: int) -> bool:
        # Full scan regardless of protocol — checks the indexed
        # implementation's per-epoch incomplete set against ground truth.
        return all(e.complete_for_commit(self.require_confirm)
                   for e in self._all_entries() if e.epoch == epoch)
