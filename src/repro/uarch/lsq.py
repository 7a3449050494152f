"""Load/store queue: forwarding, dependence checking, confirmation.

The LSQ holds one entry per static memory operation of every in-flight
frame, ordered globally by ``(dynamic block index, LSID)`` — the machine's
sequential memory order.  It implements:

* **speculative load issue** — a load's value is assembled byte-wise from
  the youngest older *resolved* stores, falling back to committed memory
  (charged as a data-cache access);
* **dependence checking** — when a store resolves (or changes address or
  value on a DSRE re-execution wave), every younger already-issued load
  whose correct value changed is handed to the machine's
  :class:`~repro.uarch.recovery.base.RecoveryProtocol` (a *violation*
  under flush recovery, a *re-delivery* under DSRE, either under the
  hybrid);
* **deferral** — loads wait when the dependence policy says so, and are
  re-polled whenever an older store resolves;
* **confirmation** — the commit-wave step for loads: once a load's address
  is final and every older store is final, the LSQ either confirms the
  returned value (emitting the load's final token) or issues one last
  corrected re-delivery.

Every ordering query runs against incrementally maintained indexes rather
than a scan of all in-flight entries (see docs/PERFORMANCE.md §3):

* ``_store_order``/``_store_keys`` — all in-flight stores in sequential
  memory order, sliced by bisection; the slice is also the dependence
  policy's view, since entries carry every field a policy reads;
* ``_store_buckets``/``_load_buckets`` — address-bucketed maps from
  ``BUCKET_BYTES``-aligned regions to the resolved stores / addressed loads
  touching them, so forwarding and dependence checks consult only
  overlapping candidates (each entry keeps the address it is bucketed
  under in ``span_addr``);
* ``_unresolved_keys``/``_blocking_keys`` — sorted key lists of stores that
  can still make a load wait / gate a confirmation;
* ``_deferred``/``_confirm_wait`` — the loads a store event may wake.

An entry's place in that order is one integer, ``order_key = (seq <<
LSID_BITS) | lsid``, so every bisection, sort, dict and set over keys
handles a single int.

:class:`~repro.uarch.lsq_naive.NaiveLoadStoreQueue` overrides the query
hooks with the original full scans; the property tests in
``tests/test_lsq_index.py`` assert both produce identical action streams.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..arch.memory import SparseMemory
from ..errors import SimulationError
from ..isa.block import Block
from ..spec.policy import LSID_BITS, DependencePolicy
from ..stats.counters import InvarianceCertificate
from .cache import Cache

if TYPE_CHECKING:                                    # pragma: no cover
    from .recovery.base import RecoveryProtocol


class MemKind(enum.Enum):
    LOAD = "load"
    STORE = "store"


#: The members bound once as module constants (docs/PERFORMANCE.md §12).
MEM_LOAD = MemKind.LOAD
MEM_STORE = MemKind.STORE




class MemEntry:
    """One in-flight memory operation.  A plain ``__slots__`` class: one
    is built per memory operation of every mapped frame."""

    __slots__ = ("frame_uid", "seq", "lsid", "kind", "static_id", "width",
                 "epoch", "order_key", "wave", "null", "final", "addr_final",
                 "addr", "value", "resolved", "blocking", "span_addr",
                 "issued", "deferred", "returned_value", "confirmed",
                 "redeliveries", "value_ready_at")

    def __init__(self, frame_uid: int, seq: int, lsid: int, kind: MemKind,
                 static_id: Tuple[str, int], width: int, epoch: int = 0):
        self.frame_uid = frame_uid
        self.seq = seq
        self.lsid = lsid
        self.kind = kind
        self.static_id = static_id
        self.width = width
        #: Commit/rollback epoch this operation belongs to — stamped once
        #: at registration from the protocol's ``epoch_of``.  Degenerate
        #: protocols map every frame to its own epoch (``epoch == seq``).
        self.epoch = epoch
        #: The entry's place in sequential memory order (``LSID_BITS``).
        #: Every ordering query reads it, so it is built once, here
        #: (``seq`` and ``lsid`` never change).
        self.order_key = (seq << LSID_BITS) | lsid
        self.wave = -1              # highest update wave seen from the node
        self.null = False           # predicated off at the latest wave
        self.final = False          # node's inputs are final (commit wave)
        #: Store only: the address (not necessarily the data) is final, so
        #: the store can be disambiguated against loads it does not overlap.
        self.addr_final = False
        # Store state.
        self.addr: Optional[int] = None
        self.value: Optional[int] = None
        #: Store only, set by the LSQ's index upkeep: ``resolved`` mirrors
        #: ``store_resolved`` (dependence policies read it); ``blocking``
        #: is "still gates a load's confirmation" (``_blocking_keys``).
        self.resolved = False
        self.blocking = True
        #: The address this entry is bucketed under (None: not bucketed).
        self.span_addr: Optional[int] = None
        # Load state.
        self.issued = False
        self.deferred = False
        self.returned_value: Optional[int] = None
        self.confirmed = False
        self.redeliveries = 0
        #: Cycle at which the latest issued response reaches the load
        #: node; confirmation may never undercut this (no free cache
        #: bypass).
        self.value_ready_at = 0

    def __repr__(self) -> str:
        return (f"MemEntry(frame_uid={self.frame_uid}, seq={self.seq}, "
                f"lsid={self.lsid}, kind={self.kind.name}, "
                f"addr={self.addr}, wave={self.wave})")

    @property
    def store_resolved(self) -> bool:
        """A store is resolved when it can forward (or is known-null)."""
        return self.null or self.addr is not None

    def complete_for_commit(self, require_confirm: bool) -> bool:
        """Commit gate for one entry.

        Under DSRE (``require_confirm``) the commit wave must have passed:
        stores final, loads confirmed.  Under flush recovery values can
        never change once produced (any mis-speculation flushed instead),
        so *completion* suffices — that cheap commit check is exactly what
        the flush mechanism buys in exchange for expensive recovery.
        """
        if require_confirm:
            if self.kind is MEM_STORE:
                return self.final and self.store_resolved
            return (self.null and self.final) or self.confirmed
        if self.kind is MEM_STORE:
            return self.store_resolved
        return self.null or self.issued


# --- Actions the LSQ hands back to the processor -----------------------

@dataclass(slots=True)
class LoadResponse:
    """Deliver a value to a load node after ``latency`` cycles."""

    entry: MemEntry
    value: int
    latency: int
    final: bool = False
    is_redelivery: bool = False


@dataclass(slots=True)
class Violation:
    """Flush-mode mis-speculation: recovery must restart at ``load.seq``."""

    load: MemEntry
    store: MemEntry


@dataclass(slots=True)
class Confirmed:
    """A load's returned value was confirmed; emit its final token."""

    entry: MemEntry
    value: int
    latency: int = 0


LsqAction = object  # LoadResponse | Violation | Confirmed


@dataclass(slots=True)
class LsqStats:
    loads_issued: int = 0
    loads_deferred: int = 0
    full_forwards: int = 0
    partial_forwards: int = 0
    cache_reads: int = 0
    violations: int = 0
    redeliveries: int = 0
    final_redeliveries: int = 0
    confirmations: int = 0
    trainings: int = 0


#: Address-bucket granularity.  A memory operation of width ``w`` spans at
#: most ``w // BUCKET_BYTES + 1`` buckets, so with 8-byte operations every
#: index update and overlap query touches at most two buckets.
BUCKET_SHIFT = 4
BUCKET_BYTES = 1 << BUCKET_SHIFT

_WORD_SPACE = 1 << 64


def _buckets_of(addr: int, width: int) -> range:
    """The buckets a ``width``-byte access at ``addr`` touches: one, or
    two for a validated access (1, 2, 4 or 8 bytes) that straddles."""
    return range(addr >> BUCKET_SHIFT,
                 ((addr + width - 1) >> BUCKET_SHIFT) + 1)


class LoadStoreQueue:
    """The machine's memory-ordering unit."""

    def __init__(self, memory: SparseMemory, dcache: Cache,
                 policy: DependencePolicy, forward_latency: int,
                 protocol: "RecoveryProtocol",
                 certificate: Optional[InvarianceCertificate] = None):
        self.memory = memory
        self.dcache = dcache
        self.policy = policy
        self.forward_latency = forward_latency
        #: Point-invariance certificate (see stats.counters): dirtied the
        #: moment any load decision could have gone differently under
        #: another dependence policy or recovery protocol.
        self.certificate = certificate if certificate is not None \
            else InvarianceCertificate()
        #: The machine's recovery protocol; owns the wrong-value response
        #: (see ``_recheck_loads``).
        self.protocol = protocol
        #: Commit-wave protocols gate commit on confirmation; completion-
        #: gated protocols (flush) skip confirmation entirely.
        self.require_confirm = protocol.requires_commit_wave
        #: Epoch seam: the protocol's frame-seq -> epoch mapping, and
        #: whether the per-epoch completion index below is maintained.
        #: Non-epoch-granular protocols skip the index entirely, so the
        #: hot index-maintenance paths cost them nothing.
        self._epoch_of = protocol.epoch_of
        self._epoch_tracking = protocol.epoch_granular
        #: Current cycle, advanced by the owning processor.
        self.now = 0
        #: One-shot wait bits set on violation: the refetched instance of a
        #: violating load waits for all older stores to resolve, which
        #: guarantees forward progress after a flush (otherwise an in-block
        #: store->load violation would re-trigger identically forever).
        self._poisoned: set = set()
        self.stats = LsqStats()
        #: frame uid -> lsid -> entry; frames kept in seq order, entries in
        #: LSID order (dict insertion order — built sorted at registration).
        self._frames: Dict[int, Dict[int, MemEntry]] = {}
        self._frame_order: List[int] = []

        # --- Incremental indexes (see module docstring) ----------------
        #: Flattened order-key-ordered entry list; None when stale.
        self._flat_cache: Optional[List[MemEntry]] = None
        #: All in-flight stores in order, with a parallel key list.
        self._store_order: List[MemEntry] = []
        self._store_keys: List[int] = []
        self._store_by_key: Dict[int, MemEntry] = {}
        #: Sorted keys of stores that are not yet resolved / that still
        #: gate load confirmation (mirrored by ``MemEntry.resolved`` and
        #: ``MemEntry.blocking``).
        self._unresolved_keys: List[int] = []
        self._blocking_keys: List[int] = []
        #: Address bucket -> entries whose current range touches it.
        self._store_buckets: Dict[int, List[MemEntry]] = {}
        self._load_buckets: Dict[int, List[MemEntry]] = {}
        #: Loads a store event may wake: deferred, and (under DSRE)
        #: issued-but-unconfirmed loads whose address is final.
        self._deferred: Dict[int, MemEntry] = {}
        self._confirm_wait: Dict[int, MemEntry] = {}
        #: Per-frame lsids not yet ``complete_for_commit`` — kept in sync
        #: by the same hooks that maintain the other indexes, so
        #: ``frame_mem_final`` is an emptiness check instead of a scan.
        self._incomplete: Dict[int, set] = {}
        #: Epoch -> (frame_uid, lsid) pairs not yet complete; maintained
        #: only when ``_epoch_tracking`` (same emptiness-check idea as
        #: ``_incomplete``, but spanning every frame of the epoch).
        self._epoch_incomplete: Dict[int, set] = {}

    # ------------------------------------------------------------------
    # Frame lifecycle
    # ------------------------------------------------------------------

    def register_frame(self, frame_uid: int, seq: int, block: Block) -> None:
        if self._frame_order:
            last = self._frames[self._frame_order[-1]]
            last_seq = next(iter(last.values())).seq if last else -1
            if last and seq <= last_seq:
                raise SimulationError("frames must register in seq order")
        # (lsid, kind, static_id, width) in LSID order is static per
        # block; compute once and cache on the block (cleared alongside
        # its other derived structures by ``invalidate_caches``).
        template = getattr(block, "_lsq_template", None)
        if template is None:
            if block.limits.max_memory_ops > 1 << LSID_BITS:
                raise SimulationError(
                    f"block {block.name}: max_memory_ops "
                    f"{block.limits.max_memory_ops} exceeds the LSQ's "
                    f"{LSID_BITS}-bit LSID field")
            mem_insts = sorted((inst for inst in block.instructions
                                if inst.is_memory), key=lambda i: i.lsid)
            template = tuple(
                (inst.lsid,
                 MEM_LOAD if inst.is_load else MEM_STORE,
                 (block.name, inst.lsid), inst.width)
                for inst in mem_insts)
            block._lsq_template = template
        epoch = self._epoch_of(seq)
        entries: Dict[int, MemEntry] = {}
        for lsid, kind, static_id, width in template:
            entry = MemEntry(frame_uid, seq, lsid, kind, static_id, width,
                             epoch)
            entries[lsid] = entry
            if kind is MEM_STORE:
                # Frames register in seq order and entries in LSID order,
                # so plain appends keep every store list sorted.
                key = entry.order_key
                self._store_order.append(entry)
                self._store_keys.append(key)
                self._store_by_key[key] = entry
                self._unresolved_keys.append(key)
                self._blocking_keys.append(key)
        self._frames[frame_uid] = entries
        self._frame_order.append(frame_uid)
        # Fresh entries are never complete (stores lack addresses, loads
        # are unissued and unconfirmed).
        self._incomplete[frame_uid] = set(entries)
        if self._epoch_tracking and entries:
            self._epoch_incomplete.setdefault(epoch, set()).update(
                (frame_uid, lsid) for lsid in entries)
        self._flat_cache = None

    def drop_frame(self, frame_uid: int) -> None:
        entries = self._frames.pop(frame_uid, None)
        if entries is None:
            return
        self._frame_order.remove(frame_uid)
        self._incomplete.pop(frame_uid, None)
        if self._epoch_tracking and entries:
            epoch = next(iter(entries.values())).epoch
            pending = self._epoch_incomplete.get(epoch)
            if pending is not None:
                pending.difference_update(
                    (frame_uid, lsid) for lsid in entries)
                if not pending:
                    del self._epoch_incomplete[epoch]
        self._flat_cache = None
        for entry in entries.values():
            key = entry.order_key
            if entry.kind is MEM_STORE:
                index = bisect_left(self._store_keys, key)
                del self._store_order[index]
                del self._store_keys[index]
                del self._store_by_key[key]
                if not entry.resolved:
                    self._discard_sorted(self._unresolved_keys, key)
                if entry.blocking:
                    self._discard_sorted(self._blocking_keys, key)
                if entry.span_addr is not None:
                    self._unbucket(self._store_buckets, entry)
            else:
                self._deferred.pop(key, None)
                self._confirm_wait.pop(key, None)
                if entry.span_addr is not None:
                    self._unbucket(self._load_buckets, entry)

    def commit_frame(self, frame_uid: int) -> List[Tuple[int, int, int]]:
        """Remove the (oldest) frame; return its stores as (addr, value,
        width) in LSID order for draining to memory."""
        if not self._frame_order or self._frame_order[0] != frame_uid:
            raise SimulationError("only the oldest frame may commit")
        entries = self._frames[frame_uid]
        stores = []
        for e in entries.values():           # LSID order by construction
            if not e.complete_for_commit(self.require_confirm):
                raise SimulationError(
                    f"commit of frame {frame_uid} with incomplete "
                    f"lsid {e.lsid}")
            if e.kind is MEM_STORE and not e.null:
                stores.append((e.addr, e.value, e.width))
        if self._poisoned:
            committed_seq = next(iter(entries.values())).seq \
                if entries else 0
            self._poisoned = {(seq, sid) for seq, sid in self._poisoned
                              if seq > committed_seq}
        self.drop_frame(frame_uid)
        return stores

    def frame_mem_final(self, frame_uid: int) -> bool:
        return not self._incomplete.get(frame_uid)

    def epoch_mem_final(self, epoch: int) -> bool:
        """True when every in-flight memory op of ``epoch`` is complete.

        Epoch-granular protocols poll this as part of their bulk commit
        gate; with the epoch index maintained it is an emptiness check.
        Without tracking it falls back to a scan (degenerate protocols
        never call it on the hot path; the differential test does).
        """
        if self._epoch_tracking:
            return not self._epoch_incomplete.get(epoch)
        return all(e.complete_for_commit(self.require_confirm)
                   for e in self._all_entries() if e.epoch == epoch)

    # ------------------------------------------------------------------
    # Entry access helpers
    # ------------------------------------------------------------------

    def entry(self, frame_uid: int, lsid: int) -> MemEntry:
        return self._frames[frame_uid][lsid]

    def _all_entries(self) -> Iterable[MemEntry]:
        if self._flat_cache is None:
            self._flat_cache = [entry
                                for uid in self._frame_order
                                for entry in self._frames[uid].values()]
        return self._flat_cache

    def _stores_older_than(self, key: int,
                           newest_first: bool = True) -> List[MemEntry]:
        stores = self._store_order[:bisect_left(self._store_keys, key)]
        if newest_first:
            stores.reverse()
        return stores

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def _enbucket(buckets: Dict[int, List[MemEntry]], entry: MemEntry,
                  addr: int) -> None:
        """Index the entry under ``addr`` in every bucket it touches."""
        entry.span_addr = addr
        for b in _buckets_of(addr, entry.width):
            buckets.setdefault(b, []).append(entry)

    @staticmethod
    def _unbucket(buckets: Dict[int, List[MemEntry]],
                  entry: MemEntry) -> None:
        """Remove the entry from every bucket its indexed span touches."""
        addr = entry.span_addr
        entry.span_addr = None
        for b in _buckets_of(addr, entry.width):
            bucket = buckets[b]
            bucket.remove(entry)         # identity: entries define no __eq__
            if not bucket:
                del buckets[b]

    @staticmethod
    def _discard_sorted(keys: List[int], key: int) -> None:
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            del keys[index]

    def _reindex_store(self, entry: MemEntry) -> None:
        """Sync the store's bucket span, its ``resolved``/``blocking``
        flags with their sorted key lists, and its commit completeness."""
        addr = entry.addr                # None while unresolved or null
        if addr != entry.span_addr:
            if entry.span_addr is not None:
                self._unbucket(self._store_buckets, entry)
            if addr is not None:
                self._enbucket(self._store_buckets, entry, addr)
        key = entry.order_key
        resolved = entry.store_resolved
        if resolved != entry.resolved:
            entry.resolved = resolved
            keys = self._unresolved_keys
            if resolved:
                del keys[bisect_left(keys, key)]
            else:
                keys.insert(bisect_left(keys, key), key)
        complete = entry.final and resolved
        if complete == entry.blocking:
            entry.blocking = not complete
            keys = self._blocking_keys
            if complete:
                del keys[bisect_left(keys, key)]
            else:
                keys.insert(bisect_left(keys, key), key)
        self._track_commit(entry)

    def _track_load(self, entry: MemEntry) -> None:
        """Sync the load's membership in the wake-candidate sets and its
        commit completeness."""
        key = entry.order_key
        if entry.deferred:
            self._deferred[key] = entry
        else:
            self._deferred.pop(key, None)
        if (self.require_confirm and entry.issued and entry.final
                and not entry.confirmed and not entry.null):
            self._confirm_wait[key] = entry
        else:
            self._confirm_wait.pop(key, None)
        self._track_commit(entry)

    def _track_commit(self, entry: MemEntry) -> None:
        """Sync the entry's membership in its frame's incomplete set
        (and, for epoch-granular protocols, its epoch's)."""
        incomplete = self._incomplete.get(entry.frame_uid)
        if incomplete is None:
            return
        if entry.complete_for_commit(self.require_confirm):
            incomplete.discard(entry.lsid)
            if self._epoch_tracking:
                pending = self._epoch_incomplete.get(entry.epoch)
                if pending is not None:
                    pending.discard((entry.frame_uid, entry.lsid))
                    if not pending:
                        del self._epoch_incomplete[entry.epoch]
        else:
            incomplete.add(entry.lsid)
            if self._epoch_tracking:
                self._epoch_incomplete.setdefault(entry.epoch, set()).add(
                    (entry.frame_uid, entry.lsid))

    # ------------------------------------------------------------------
    # Ordering queries (overridden by the naive reference implementation)
    # ------------------------------------------------------------------

    def _forwarding_stores(self, load: MemEntry) -> List[MemEntry]:
        """Resolved non-null stores older than the load that may supply
        bytes, newest first."""
        addr, width = load.addr, load.width
        key = load.order_key
        end = addr + width
        found: Dict[int, MemEntry] = {}
        for b in _buckets_of(addr, width):
            for store in self._store_buckets.get(b, ()):
                if (store.order_key < key and store.addr < end
                        and addr < store.addr + store.width):
                    found[store.order_key] = store
        return [found[k] for k in sorted(found, reverse=True)]

    def _policy_view(self, load: MemEntry) -> Sequence[MemEntry]:
        """The older in-flight stores, oldest first: the entries
        themselves, whose ``resolved`` field a policy reads."""
        return self._store_order[:bisect_left(self._store_keys,
                                              load.order_key)]

    def _recheck_candidates(self, store: MemEntry, old_addr: Optional[int],
                            old_width: int) -> List[MemEntry]:
        """Issued loads younger than the store that may touch its old or
        new range, oldest first."""
        found: Dict[int, MemEntry] = {}
        key = store.order_key
        for addr, width in ((store.addr, store.width),
                            (old_addr, old_width)):
            if addr is None or width <= 0:
                continue
            for b in _buckets_of(addr, width):
                for load in self._load_buckets.get(b, ()):
                    if (load.order_key > key and load.issued
                            and not load.null):
                        found[load.order_key] = load
        return [found[k] for k in sorted(found)]

    def _wake_candidates(self, store: MemEntry) -> List[MemEntry]:
        """Loads younger than the store that a store event may unblock:
        deferred loads and (under DSRE) unconfirmed issued loads."""
        key = store.order_key
        deferred, waiting = self._deferred, self._confirm_wait
        if not waiting:
            if not deferred:
                return []
            return [deferred[k] for k in sorted([k for k in deferred
                                                 if k > key])]
        keys = {k for k in deferred if k > key}
        keys.update(k for k in waiting if k > key)
        return [deferred.get(k) or waiting[k] for k in sorted(keys)]

    def _confirm_gate_stores(self, load: MemEntry) -> Iterator[MemEntry]:
        """Stores older than the load that may still gate confirmation,
        oldest first.  Lazy: ``_maybe_confirm`` stops at the first store
        that gates."""
        key = load.order_key
        by_key = self._store_by_key
        for k in self._blocking_keys:
            if k >= key:
                return
            yield by_key[k]

    # ------------------------------------------------------------------
    # Value assembly
    # ------------------------------------------------------------------

    def speculative_value(self, load: MemEntry
                          ) -> Tuple[int, bool, bool,
                                     Optional[MemEntry]]:
        """Assemble the load's value from resolved older stores + memory.

        Returns ``(value, fully_forwarded, any_forwarded, youngest_store)``
        where ``youngest_store`` is the youngest store contributing a byte.
        """
        assert load.addr is not None
        if load.addr + load.width > _WORD_SPACE:
            # Byte addresses wrap at 2**64 in the assembly loop, so range
            # comparisons (and the fast paths built on them) do not apply;
            # merge byte-wise over the full candidate list instead.
            return self._assemble_bytes(
                load, [s for s in self._stores_older_than(load.order_key)
                       if not s.null and s.addr is not None])
        stores = self._forwarding_stores(load)
        if not stores:
            # No overlapping store: the whole value comes from memory.
            return (self.memory.read_int(load.addr, load.width),
                    False, False, None)
        youngest = stores[0]
        if (youngest.addr <= load.addr and load.addr + load.width
                <= youngest.addr + youngest.width):
            # Full-width forward from the youngest overlapping store — the
            # dominant case — extracted in one shift instead of per byte.
            value = (youngest.value >> (8 * (load.addr - youngest.addr))) \
                & ((1 << (8 * load.width)) - 1)
            return value, True, True, youngest
        return self._assemble_bytes(load, stores)

    def _assemble_bytes(self, load: MemEntry, stores: List[MemEntry]
                        ) -> Tuple[int, bool, bool, Optional[MemEntry]]:
        """General byte-merge over a newest-first store candidate list."""
        data = bytearray()
        fully = True
        any_fwd = False
        youngest: Optional[MemEntry] = None
        for offset in range(load.width):
            byte_addr = (load.addr + offset) & (_WORD_SPACE - 1)
            byte = None
            for store in stores:           # newest first
                if store.addr <= byte_addr < store.addr + store.width:
                    byte = (store.value >> (8 * (byte_addr - store.addr))) \
                        & 0xFF
                    any_fwd = True
                    if (youngest is None
                            or store.order_key > youngest.order_key):
                        youngest = store
                    break
            if byte is None:
                fully = False
                byte = self.memory.read_bytes(byte_addr, 1)[0]
            data.append(byte)
        return int.from_bytes(bytes(data), "little"), fully, any_fwd, youngest

    # ------------------------------------------------------------------
    # Load path
    # ------------------------------------------------------------------

    def load_request(self, frame_uid: int, lsid: int, addr: int,
                     wave: int, final: bool = False) -> List[LsqAction]:
        """A load node's address arrived (or re-arrived at a higher wave)."""
        entry = self.entry(frame_uid, lsid)
        if wave < entry.wave:
            return []
        entry.wave = wave
        entry.null = False
        if final:
            entry.final = True
        addr_changed = entry.addr != addr
        if addr_changed:
            # A load is bucketed under its latest address.
            entry.confirmed = False
            entry.addr = addr
            if entry.span_addr is not None:
                self._unbucket(self._load_buckets, entry)
            self._enbucket(self._load_buckets, entry, addr)
        self._track_load(entry)
        if entry.issued and not addr_changed:
            return self._maybe_confirm(entry)
        if self._must_wait(entry):
            entry.deferred = True
            self._track_load(entry)
            self.stats.loads_deferred += 1
            self.certificate.deferrals += 1
            return []
        return self._issue_load(entry)

    def poison(self, seq: int, static_id: Tuple[str, int]) -> None:
        """Set the one-shot wait bit for a violating load instance."""
        self._poisoned.add((seq, static_id))

    def _must_wait(self, entry: MemEntry) -> bool:
        # Every policy answers "issue now" when no older unresolved store
        # exists (DependencePolicy's contract), and so does the wait bit,
        # so the load decision can only depend on the policy while one
        # does — that is exactly the certificate condition, checked once
        # here (O(1) against the sorted index).  ``policy_windows`` thus
        # counts every evaluation that finds an older unresolved store
        # (see ``InvarianceCertificate``).
        unresolved = self._unresolved_keys
        if not unresolved or unresolved[0] >= entry.order_key:
            return False
        self.certificate.policy_windows += 1
        policy = self.policy
        if policy.never_waits:
            pass                      # aggressive: skip the view entirely
        elif policy.waits_for_any_unresolved:
            return True
        elif policy.waits_for_producer:
            # The oracle: one lookup of the named store, no view.
            key = policy.producer_key(entry)
            if key is not None and key < entry.order_key:
                store = self._store_by_key.get(key)
                if store is not None and not store.resolved:
                    return True
        elif policy.should_wait(entry, self._policy_view(entry)):
            return True
        # The wait bit persists until the instance commits: the frame may
        # be re-squashed by an unrelated violation, and the refetched
        # instance must keep waiting too.
        return (entry.seq, entry.static_id) in self._poisoned

    def _compute_load(self, entry: MemEntry) -> Tuple[int, int]:
        """Assemble the load's current value and its access latency."""
        value, fully, any_fwd, _ = self.speculative_value(entry)
        if fully:
            latency = self.forward_latency
            self.stats.full_forwards += 1
        else:
            self.stats.cache_reads += 1
            cache_lat = self.dcache.access(entry.addr)
            if any_fwd:
                self.stats.partial_forwards += 1
                latency = max(self.forward_latency, cache_lat)
            else:
                latency = cache_lat
        return value, latency

    def _issue_load(self, entry: MemEntry,
                    is_redelivery: bool = False) -> List[LsqAction]:
        entry.deferred = False
        value, latency = self._compute_load(entry)
        entry.value_ready_at = max(entry.value_ready_at, self.now + latency)
        first_issue = not entry.issued
        entry.issued = True
        changed = entry.returned_value != value
        entry.returned_value = value
        self._track_load(entry)
        if first_issue:
            self.stats.loads_issued += 1
        actions: List[LsqAction] = []
        if first_issue or changed or is_redelivery:
            actions.append(LoadResponse(entry, value, latency,
                                        is_redelivery=is_redelivery))
            if is_redelivery:
                entry.redeliveries += 1
                self.stats.redeliveries += 1
        actions.extend(self._maybe_confirm(entry))
        return actions

    def load_null(self, frame_uid: int, lsid: int, wave: int,
                  final: bool) -> List[LsqAction]:
        """The load was predicated off at this wave."""
        entry = self.entry(frame_uid, lsid)
        if wave < entry.wave:
            return []
        if wave == entry.wave and entry.null:
            entry.final = entry.final or final
            return []
        entry.wave = wave
        entry.null = True
        entry.final = final
        entry.deferred = False
        entry.confirmed = False
        self._track_load(entry)
        return []

    def _poll_deferred_one(self, entry: MemEntry) -> List[LsqAction]:
        """Re-poll a deferred load: issue it unless it must still wait."""
        if self._must_wait(entry):
            return []
        return self._issue_load(entry)

    # ------------------------------------------------------------------
    # Store path
    # ------------------------------------------------------------------

    def store_update(self, frame_uid: int, lsid: int, addr: Optional[int],
                     value: Optional[int], wave: int, final: bool,
                     null: bool, addr_final: bool = False) -> List[LsqAction]:
        """A store node executed (or re-executed, or was predicated off)."""
        entry = self.entry(frame_uid, lsid)
        addr_final = addr_final or final
        if wave < entry.wave:
            return []
        if wave == entry.wave:
            upgraded = (final and not entry.final) \
                or (addr_final and not entry.addr_final)
            entry.final = entry.final or final
            entry.addr_final = entry.addr_final or addr_final
            if upgraded:
                self._reindex_store(entry)
                return self._after_store_event(entry)
            return []
        old_addr, old_width = entry.addr, entry.width
        old_value, old_null = entry.value, entry.null
        entry.wave = wave
        entry.final = final
        entry.addr_final = addr_final
        entry.null = null
        entry.addr = None if null else addr
        if null:
            entry.value = None
        else:
            entry.value = value & ((1 << (8 * entry.width)) - 1)
        self._reindex_store(entry)
        actions: List[LsqAction] = []
        unchanged = (old_null == null and old_addr == entry.addr
                     and old_value == entry.value)
        if not unchanged:
            actions.extend(self._recheck_loads(
                entry, old_addr, old_width if old_addr is not None else 0))
        actions.extend(self._after_store_event(entry))
        return actions

    def _ranges_overlap(self, load: MemEntry, addr: Optional[int],
                        width: int) -> bool:
        if addr is None or load.addr is None:
            return False
        return load.addr < addr + width and addr < load.addr + load.width

    def _recheck_loads(self, store: MemEntry, old_addr: Optional[int],
                       old_width: int) -> List[LsqAction]:
        """Value-based dependence check of younger issued loads."""
        actions: List[LsqAction] = []
        for load in self._recheck_candidates(store, old_addr, old_width):
            touches_new = self._ranges_overlap(load, store.addr, store.width)
            touches_old = self._ranges_overlap(load, old_addr, old_width)
            if not (touches_new or touches_old):
                continue
            correct, _, _, _ = self.speculative_value(load)
            if correct == load.returned_value:
                continue
            self.certificate.wrong_values += 1
            self.policy.on_misspeculation(load.static_id, store.static_id)
            self.stats.trainings += 1
            actions.extend(self.protocol.on_wrong_value(self, load, store))
        return actions

    def redeliver(self, load: MemEntry) -> List[LsqAction]:
        """Re-issue a mis-speculated load with its corrected value.

        The selective-re-execution response to :meth:`RecoveryProtocol
        .on_wrong_value`: the corrected value re-fires the load's consumer
        cone as a new speculative wave.
        """
        return self._issue_load(load, is_redelivery=True)

    def frame_redeliveries(self, frame_uid: int) -> int:
        """Total re-deliveries absorbed by the frame's loads so far.

        Escalation metric for bounded-re-execution protocols (hybrid);
        counts confirmation-time final re-deliveries too, since those are
        equally re-executed work.
        """
        entries = self._frames.get(frame_uid)
        if not entries:
            return 0
        return sum(e.redeliveries for e in entries.values()
                   if e.kind is MEM_LOAD)

    def _after_store_event(self, store: MemEntry) -> List[LsqAction]:
        """Wake deferred loads and retry confirmations after a store event."""
        actions: List[LsqAction] = []
        for load in self._wake_candidates(store):
            if load.deferred:
                actions.extend(self._poll_deferred_one(load))
            elif load.issued and not load.confirmed:
                actions.extend(self._maybe_confirm(load))
        return actions

    # ------------------------------------------------------------------
    # Confirmation (the commit wave through memory)
    # ------------------------------------------------------------------

    def _maybe_confirm(self, entry: MemEntry) -> List[LsqAction]:
        if not self.require_confirm:
            return []
        if (entry.confirmed or entry.null or not entry.issued
                or not entry.final):
            return []
        addr = entry.addr
        end = addr + entry.width
        for store in self._confirm_gate_stores(entry):
            if store.null:
                if not store.final:
                    return []
                continue
            if store.final and store.store_resolved:
                continue
            # A store with a final address that cannot overlap this load
            # does not gate confirmation even while its data is pending.
            if (store.addr_final and store.addr is not None
                    and not (addr < store.addr + store.width
                             and store.addr < end)):
                continue
            return []
        correct, _, _, _ = self.speculative_value(entry)
        entry.confirmed = True
        self._track_load(entry)
        # The confirmation may never reach the node before the issued
        # response does — that would be a free cache bypass.
        pending = max(0, entry.value_ready_at - self.now)
        if correct == entry.returned_value:
            # A pure confirmation is a control signal, not a data access:
            # it costs only its network trip (plus any still-pending data).
            self.stats.confirmations += 1
            return [Confirmed(entry, correct, pending)]
        # Mis-speculated and nothing re-checked it earlier: final redelivery
        # under DSRE (flush mode does not run confirmation at all).
        self.certificate.wrong_values += 1
        self.stats.final_redeliveries += 1
        _, access_latency = self._compute_load(entry)
        latency = max(access_latency, pending)
        entry.value_ready_at = max(entry.value_ready_at, self.now + latency)
        entry.returned_value = correct
        entry.redeliveries += 1
        self.stats.redeliveries += 1
        return [LoadResponse(entry, correct, latency,
                             final=True, is_redelivery=True)]

    # ------------------------------------------------------------------
