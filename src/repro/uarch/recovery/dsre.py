"""Distributed selective re-execution — the paper's protocol."""

from __future__ import annotations

from typing import List

from .base import RecoveryProtocol, SimulationError, register_protocol


@register_protocol
class DsreRecovery(RecoveryProtocol):
    """Selective re-execution: corrected values re-fire only their cone.

    The LSQ re-delivers a corrected value to the mis-speculated load,
    whose consumers re-fire as a new speculative wave; the commit wave
    (final tokens plus load confirmation) trails behind and gates block
    commit.  Mis-speculation never squashes — frames are flushed only on
    control mis-speculation (branch redirects), which is out of this
    protocol's scope exactly as in the paper.
    """

    name = "dsre"
    requires_commit_wave = True

    def on_wrong_value(self, lsq, load, store) -> List:
        return lsq.redeliver(load)

    def handle_violation(self, violation) -> None:
        raise SimulationError(
            "dsre recovery received a Violation action; the DSRE LSQ "
            "re-delivers instead of raising violations")

    def frame_outputs_ready(self, frame) -> bool:
        # Cheap raw-finality screen first: this poll runs on every cycle
        # the commit signal is raised (each LSQ delivery and each changed
        # write or branch deposit raises it) and almost always fails
        # here.  Once everything is final,
        # ``outputs_final`` revalidates (and raises on a finalised
        # all-null slot exactly as before the screen existed).
        if not frame.branch_buffer.final:
            return False
        for buf in frame.write_buffers:
            if not buf.final:
                return False
        return frame.outputs_final()
