"""Dependence-speculation policy interface and the two trivial policies.

A policy decides, for each load whose address is known, whether the load
may issue now or must wait for older stores.  The LSQ re-polls deferred
loads whenever an older store resolves, so policies are event-driven and
stateless per query.

The four policies of the evaluation:

* **conservative** — a load waits until *every* older in-flight store has
  resolved.  No mis-speculation, maximum serialisation.
* **aggressive** — loads never wait.  Maximum speculation; recovery (flush
  or DSRE) cleans up.  This is the issue policy the DSRE protocol runs.
* **storeset** (:mod:`repro.spec.storeset`) — the best dependence predictor
  in the literature at publication time; the paper's headline +17% is DSRE
  over this baseline.
* **oracle** (:mod:`repro.spec.oracle`) — perfect knowledge of each load's
  producing store from the golden trace; the paper's 82%-of-oracle anchor.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: Static identity of a memory operation: (block name, lsid).
StaticMemId = Tuple[str, int]


class LoadQuery:
    """Everything a policy may consider when deciding whether a load waits.

    The LSQ hands policies its own ``MemEntry`` objects, which carry these
    fields (and stores a ``resolved`` flag), so it builds none of these
    per poll; this plain ``__slots__`` type is for tests and the naive
    reference LSQ.
    """

    __slots__ = ("static_id", "seq", "lsid", "addr", "width")

    def __init__(self, static_id: StaticMemId, seq: int, lsid: int,
                 addr: int, width: int):
        self.static_id = static_id
        self.seq = seq             # dynamic block index of the load's frame
        self.lsid = lsid
        self.addr = addr
        self.width = width


class StoreView:
    """A policy's view of one older in-flight store (see LoadQuery)."""

    __slots__ = ("static_id", "seq", "lsid", "resolved")

    def __init__(self, static_id: StaticMemId, seq: int, lsid: int,
                 resolved: bool):
        self.static_id = static_id
        self.seq = seq
        self.lsid = lsid
        self.resolved = resolved   # address+data known (or known-null)


class DependencePolicy:
    """Decides load issue timing; trained on mis-speculations.

    ``never_waits`` / ``waits_for_any_unresolved`` declare the two trivial
    answer shapes so the LSQ can answer them from its incremental indexes
    without materialising a store view; a policy setting either one must
    keep :meth:`should_wait` consistent with the declared shape (it is
    still what the naive reference implementation calls).

    Every policy must answer False when no older store is unresolved: the
    LSQ consults :meth:`should_wait` only while one is (the naive
    reference asks on every poll, so the differential test holds the
    rule for the registered policies).
    """

    name = "abstract"
    #: should_wait is constantly False (no view needed at all).
    never_waits = False
    #: should_wait is exactly "any older in-flight store unresolved".
    waits_for_any_unresolved = False

    def should_wait(self, load: LoadQuery,
                    older_stores: Iterable[StoreView]) -> bool:
        """True if the load must keep waiting given current store state."""
        raise NotImplementedError

    def on_misspeculation(self, load_static: StaticMemId,
                          store_static: StaticMemId) -> None:
        """Called when a load received a wrong value because of this store."""


class ConservativePolicy(DependencePolicy):
    """Loads wait for all older in-flight stores to resolve."""

    name = "conservative"
    waits_for_any_unresolved = True

    def should_wait(self, load: LoadQuery,
                    older_stores: Iterable[StoreView]) -> bool:
        return any(not s.resolved for s in older_stores)


class AggressivePolicy(DependencePolicy):
    """Loads never wait (DSRE's issue policy)."""

    name = "aggressive"
    never_waits = True

    def should_wait(self, load: LoadQuery,
                    older_stores: Iterable[StoreView]) -> bool:
        return False
