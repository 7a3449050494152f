"""Transactional-wave recovery: epoch-bulk commit, epoch rollback.

The other end of the recovery design space from DSRE's per-instruction
selective re-execution: frames are grouped into fixed-size *epochs* of
``config.txwave_epoch_blocks`` consecutive blocks (the transactional
WaveCache's wave-numbered memory operations).  Memory operations carry
their epoch number in the LSQ, commit is held until the *whole* epoch has
completed — then the epoch's frames drain back-to-back through the normal
per-frame commit machinery (bulk commit, still paced by the store-drain
bandwidth and golden-checked per block) — and a dependence violation rolls
the machine back to the start of the violating frame's epoch, the
youngest epoch boundary consistent with the wrong value.

Like flush recovery the commit gate is *completion* (no commit wave):
values never survive a detected mis-speculation, so a completed epoch is
architecturally stable.  An epoch closes when

* its last block is in flight and complete (``seq == epoch end - 1``), or
* its youngest in-flight block branches to HALT (program ends
  mid-epoch), or
* the frame window is saturated entirely within the epoch — with
  ``max_frames < txwave_epoch_blocks`` the epoch can never be co-resident,
  so commit degrades gracefully toward per-frame draining instead of
  deadlocking (liveness; the conformance suite's one-frame window relies
  on this).
"""

from __future__ import annotations

from typing import List

from ...core.tokens import STATUS_VALUE
from ...isa.program import HALT_LABEL
from ..lsq import Violation
from .base import RecoveryProtocol, register_protocol


@register_protocol
class TxWaveRecovery(RecoveryProtocol):
    """Epoch-numbered memory ops, bulk commit, epoch-granular rollback."""

    name = "txwave"
    requires_commit_wave = False
    epoch_granular = True

    def __init__(self, config):
        super().__init__(config)
        self.epoch_blocks = config.txwave_epoch_blocks

    # --- Epoch seam -----------------------------------------------------

    def epoch_of(self, seq: int) -> int:
        return seq // self.epoch_blocks

    def epoch_start(self, epoch: int) -> int:
        return epoch * self.epoch_blocks

    # --- LSQ-side seam --------------------------------------------------

    def on_wrong_value(self, lsq, load, store) -> List:
        # Flush-style: no re-delivery — escalate to a violation, which the
        # inherited handle_violation routes through rollback_to_epoch.
        lsq.stats.violations += 1
        return [Violation(load, store)]

    # --- Commit gate ----------------------------------------------------

    @staticmethod
    def _complete(frame) -> bool:
        # The flush completion screen (every output slot holds a VALUE),
        # applied to each epoch member rather than the head alone.
        if frame.branch_buffer.status is not STATUS_VALUE:
            return False
        for buf in frame.write_buffers:
            if buf.status is not STATUS_VALUE:
                return False
        return True

    def frame_outputs_ready(self, frame) -> bool:
        proc = self.processor
        epoch = self.epoch_of(frame.seq)
        end = self.epoch_start(epoch + 1)
        frames = proc.frames
        members = []
        for candidate in frames:
            if candidate.seq >= end:
                break
            if not self._complete(candidate):
                return False
            members.append(candidate)
        # Epoch closed?  Fully fetched (in-flight seqs are contiguous, so
        # the last block being resident is the whole epoch being
        # resident), ended by HALT, or window-saturated mid-epoch.
        youngest = members[-1]
        if not (youngest.seq == end - 1
                or youngest.branch_label == HALT_LABEL
                or (len(frames) >= proc.config.max_frames
                    and youngest is frames[-1])):
            return False
        # Every memory op of the epoch must be complete (the indexed
        # per-epoch emptiness check); the processor separately gates the
        # head's own entries via frame_mem_final.
        return proc.lsq.epoch_mem_final(epoch)
