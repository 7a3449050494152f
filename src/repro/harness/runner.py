"""Single-run and multi-policy drivers.

The runner caches golden traces per kernel instance so a five-policy
comparison pays for one functional execution, and exposes the *standard
machine points* of the evaluation:

* ``conservative`` — loads wait for all older stores (flush recovery)
* ``aggressive``   — always speculate, flush recovery
* ``storeset``     — store-set predictor, flush recovery (the paper's best
  conventional baseline)
* ``dsre``         — always speculate, DSRE recovery (the paper's protocol)
* ``oracle``       — perfect load-issue oracle, flush recovery (upper bound)
* ``hybrid``       — always speculate, DSRE with a bounded-re-delivery
  flush fallback (additive point; not in the default table order)
* ``txwave``       — always speculate, transactional-wave recovery
  (epoch-bulk commit, epoch-granular rollback; additive point)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..arch.interp import run_program
from ..arch.trace import ExecutionTrace
from ..uarch.config import MachineConfig, default_config
from ..uarch.processor import Processor, SimResult
from ..workloads.common import KernelInstance

#: name -> (dependence_policy, recovery)
STANDARD_POINTS: Dict[str, Tuple[str, str]] = {
    "conservative": ("conservative", "flush"),
    "aggressive": ("aggressive", "flush"),
    "storeset": ("storeset", "flush"),
    "dsre": ("aggressive", "dsre"),
    "oracle": ("oracle", "flush"),
    "hybrid": ("aggressive", "hybrid"),
    "txwave": ("aggressive", "txwave"),
}

#: Display order for tables.  Deliberately the original five-point list —
#: every published table (and its golden bytes) renders these; additive
#: points like ``hybrid`` are runnable by name without reflowing them.
POINT_ORDER = ["conservative", "aggressive", "storeset", "dsre", "oracle"]


def golden_of(instance: KernelInstance) -> ExecutionTrace:
    """Run (and memoise on the instance) the functional golden trace.

    The memo is stored as ``(identity_digest, trace)`` and re-validated
    against the instance's current program identity on every hit: the
    ``_golden_cache`` attribute survives pickling round-trips and direct
    mutation of ``instance.program``/``initial_regs``, so a bare cached
    trace could silently go stale.
    """
    digest = instance.identity_digest()
    cached = getattr(instance, "_golden_cache", None)
    if isinstance(cached, tuple) and len(cached) == 2 and cached[0] == digest:
        return cached[1]
    trace, _ = run_program(instance.program, instance.initial_regs)
    instance._golden_cache = (digest, trace)
    return trace


def arena_of(instance: KernelInstance) -> Dict[str, list]:
    """A per-instance frame arena, shared across this kernel's runs.

    Same memo discipline as :func:`golden_of`: keyed by the instance's
    identity digest so mutating the program drops the parked frames
    (their ``block`` references would be stale).  Sharing the arena
    across machine points is the sweep harness's idiom (one arena per
    program object); ``Frame.reset_for_reuse`` restores every mutable
    field, so results are byte-identical to fresh allocation
    (tests/test_arena.py).
    """
    digest = instance.identity_digest()
    cached = getattr(instance, "_arena_cache", None)
    if isinstance(cached, tuple) and len(cached) == 2 and cached[0] == digest:
        return cached[1]
    arena: Dict[str, list] = {}
    instance._arena_cache = (digest, arena)
    return arena


def run_point(instance: KernelInstance, point: str,
              base: Optional[MachineConfig] = None,
              **overrides) -> SimResult:
    """Run one kernel at one named machine point."""
    policy, recovery = STANDARD_POINTS[point]
    config = (base or default_config()).derive(
        dependence_policy=policy, recovery=recovery, **overrides)
    golden = golden_of(instance)
    processor = Processor(instance.program, config, instance.initial_regs,
                          golden=golden, frame_arena=arena_of(instance))
    result = processor.run()
    problems = instance.check(processor.arch)
    if problems:
        raise AssertionError(
            f"{instance.name} @ {point}: wrong final state: {problems}")
    return result


def run_points(instance: KernelInstance,
               points: Optional[Iterable[str]] = None,
               base: Optional[MachineConfig] = None,
               **overrides) -> Dict[str, SimResult]:
    """Run one kernel at several machine points (golden trace shared)."""
    return {point: run_point(instance, point, base, **overrides)
            for point in (points or POINT_ORDER)}
