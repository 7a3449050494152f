"""Simulation statistics.

:class:`SimStats` is filled in by the processor during a run; the derived
properties (IPC, re-execution ratios, recovery costs) are what the
benchmark harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class SimStats:
    """Counters for one timing-simulation run."""

    cycles: int = 0

    # Commit-side (useful) work.
    committed_blocks: int = 0
    committed_instructions: int = 0     # non-null results that committed
    committed_nulls: int = 0            # predicated-off slots that committed

    # Execution-side (total) work, including waves and squashed frames.
    executions: int = 0                 # every FU pass
    reexecutions: int = 0               # FU passes beyond a node's first
    load_redeliveries: int = 0          # LSQ value re-deliveries applied
    squashed_executions: int = 0        # FU passes thrown away by flushes

    # Recovery events.
    violation_flushes: int = 0
    branch_redirects: int = 0
    late_branch_redirects: int = 0      # redirects caused by a DSRE wave
    squashed_frames: int = 0
    squashed_instructions: int = 0      # window occupancy lost to flushes

    # Speculation events.
    dependence_mispeculations: int = 0  # value-changing store/load overlaps

    # Frame bookkeeping.
    frames_mapped: int = 0
    fetch_stall_cycles: int = 0

    # Occupancy sampling.
    occupancy_samples: int = 0
    occupancy_total: int = 0

    # Work attribution (epoch seam).  FU work is counted at *issue* so
    # the invariant ``fu_work_issued == fu_work_committed +
    # squashed_executions`` holds exactly: every mapped frame ends in
    # exactly one of commit or squash, and both sides count the same
    # per-node exec passes.  ``wave_operand_sends`` counts operand tokens
    # re-delivered at wave > 1 (selective re-execution traffic); the
    # epoch_* counters stay zero for every non-epoch-granular protocol.
    fu_work_issued: int = 0             # FU passes started (any fate)
    fu_work_committed: int = 0          # FU passes whose frame committed
    wave_operand_sends: int = 0         # operand tokens sent at wave > 1
    epochs_closed: int = 0              # epoch-close events at commit
    epoch_rollbacks: int = 0            # violations rolled back by epoch
    epoch_rollback_depth: int = 0       # frames between violator and target

    # Block-plan code cache (repro.uarch.specialize): plan-backed
    # activations (one per mapped frame) and cold plan resolutions (this
    # run's first activation of each block — deterministic per run,
    # regardless of shared-cache warmth).
    specialize_hits: int = 0
    specialize_misses: int = 0

    @property
    def ipc(self) -> float:
        """Committed useful instructions per cycle."""
        return (self.committed_instructions / self.cycles
                if self.cycles else 0.0)

    @property
    def reexecution_ratio(self) -> float:
        """Re-executions per committed instruction (DSRE overhead)."""
        if not self.committed_instructions:
            return 0.0
        return self.reexecutions / self.committed_instructions

    @property
    def wasted_execution_ratio(self) -> float:
        """Squashed FU work per committed instruction (flush overhead)."""
        if not self.committed_instructions:
            return 0.0
        return self.squashed_executions / self.committed_instructions

    @property
    def average_occupancy(self) -> float:
        """Mean number of in-flight frames."""
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_total / self.occupancy_samples

    def as_dict(self) -> Dict[str, float]:
        base = {name: getattr(self, name)
                for name in self.__dataclass_fields__}
        base.update(
            ipc=self.ipc,
            reexecution_ratio=self.reexecution_ratio,
            wasted_execution_ratio=self.wasted_execution_ratio,
            average_occupancy=self.average_occupancy,
        )
        return base

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SimStats":
        """Rebuild counters from a dict (ignores derived keys like ipc)."""
        return cls(**{name: int(data[name])
                      for name in cls.__dataclass_fields__ if name in data})

    def merge(self, other: "SimStats") -> "SimStats":
        """Accumulate another run's counters into this one (in place).

        Sums every raw counter, so derived rates (IPC, ratios) become
        whole-sweep aggregates.  Used to combine results coming back from
        worker processes into one session summary.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


def merge_stats(runs: "list[SimStats]") -> SimStats:
    """Sum a collection of per-run counters into one aggregate."""
    total = SimStats()
    for stats in runs:
        total.merge(stats)
    return total


# Test hook: when True every certificate reports dirty, so the sweep
# elision layer must fall back to per-point simulation.  The soundness
# suite flips this to prove forced-dirty runs are never forwarded.
FORCE_DIRTY = False


@dataclass
class InvarianceCertificate:
    """Conservative proof that a run never consulted the speculation axis.

    Kept separate from :class:`SimStats` on purpose: the cache record
    layout pins SimStats, ``merge()`` sums every field, and a certificate
    is a per-run *predicate*, not an additive counter set.  Each field
    counts one way a dynamic decision could have depended on the
    dependence policy or recovery protocol; a run is forwardable to
    sibling machine points only while all of them stay zero.
    """

    #: Every LSQ ``_must_wait`` evaluation that finds an older
    #: unresolved store, whether or not the load then waits: each
    #: request of a load that is unissued or whose address changed, and
    #: each re-poll of a deferred load (on a store event or when its
    #: address turns final).
    policy_windows: int = 0
    deferrals: int = 0           # load actually held back by the policy
    wrong_values: int = 0        # mis-speculated value seen by the protocol
    offpath_predictions: int = 0  # predictor answered off the golden path
    forced: int = 0              # FORCE_DIRTY was set at construction

    @property
    def clean(self) -> bool:
        return not (self.policy_windows or self.deferrals
                    or self.wrong_values or self.offpath_predictions
                    or self.forced)

    def as_dict(self) -> Dict[str, int]:
        data = {name: getattr(self, name)
                for name in self.__dataclass_fields__}
        data["clean"] = self.clean
        return data
