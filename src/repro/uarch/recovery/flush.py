"""Conventional flush recovery: squash the frame and everything younger."""

from __future__ import annotations

from typing import List

from ...core.tokens import STATUS_VALUE
from ..lsq import Violation
from .base import RecoveryProtocol, register_protocol


@register_protocol
class FlushRecovery(RecoveryProtocol):
    """Squash-and-refetch: a violation flushes the frame and all younger.

    The conventional mechanism.  Values can never change once produced
    (any detected mis-speculation squashes instead), so the commit gate
    is *completion* — every output slot holds a value — with no commit
    wave at all.  That cheap gate is exactly what flush recovery buys in
    exchange for expensive recovery.
    """

    name = "flush"
    requires_commit_wave = False

    def on_wrong_value(self, lsq, load, store) -> List:
        lsq.stats.violations += 1
        return [Violation(load, store)]

    # handle_violation: inherited squash-and-refetch.

    def frame_outputs_ready(self, frame) -> bool:
        # Completion screen: every output slot has a VALUE, read from raw
        # buffer state because it polls on every cycle the commit signal
        # is raised.
        if frame.branch_buffer.status is not STATUS_VALUE:
            return False
        for buf in frame.write_buffers:
            if buf.status is not STATUS_VALUE:
                return False
        return True
