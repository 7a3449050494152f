"""Cycle-level microarchitecture: tiles, network, LSQ, caches, processor."""

from .cache import BlockCache, Cache, build_hierarchy
from .config import MachineConfig, default_config
from .frame import Frame
from .lsq import LoadStoreQueue, MemEntry, MemKind
from .network import OperandNetwork
from .predictor import (LastTargetPredictor, NextBlockPredictor,
                        PerfectPredictor, build_predictor)
from .processor import Processor, SimResult
from .tile import ExecTile

__all__ = [
    "BlockCache", "Cache", "ExecTile", "Frame", "LastTargetPredictor",
    "LoadStoreQueue", "MachineConfig", "MemEntry", "MemKind",
    "NextBlockPredictor", "OperandNetwork", "PerfectPredictor",
    "Processor", "SimResult", "build_hierarchy", "build_predictor",
    "default_config",
]
