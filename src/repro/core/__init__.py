"""The paper's contribution: the distributed selective re-execution (DSRE)
protocol — wave-tagged tokens, multi-producer operand buffers, selective
re-fire rules, and the trailing commit wave."""

from .buffers import TokenBuffer
from .node import InstructionNode, NodeState, Outcome, OutcomeKind
from .tokens import ProducerKey, SlotStatus, TokenValue

__all__ = [
    "InstructionNode", "NodeState", "Outcome", "OutcomeKind", "ProducerKey",
    "SlotStatus", "TokenBuffer", "TokenValue",
]
