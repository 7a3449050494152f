"""Sweep planning: enumerating (kernel, machine point, config) cells.

A :class:`SweepPlan` is an ordered list of :class:`SweepCell` — one timing
simulation each.  Experiments build their whole grid up front and hand it
to a :class:`~repro.harness.parallel.ParallelRunner`, which executes the
cells (possibly across worker processes, possibly from cache) and returns
results in plan order.  Cells are plain picklable data so they can cross a
``ProcessPoolExecutor`` boundary.

A plan derives one :class:`MachineConfig` per distinct (base, point,
overrides) input and hands that object to every cell with those inputs,
so a 200-program x 7-point corpus plan holds 7 configs, not 1,400.  A
derived config is read-only from then on: the runner keys, groups and
simulates cells by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..uarch.config import MachineConfig, default_config
from ..workloads.common import KernelInstance
from .runner import STANDARD_POINTS


@dataclass
class SweepCell:
    """One (kernel, machine point, config overrides) timing simulation.

    ``point`` may be a standard machine-point name (see
    :data:`~repro.harness.runner.STANDARD_POINTS`) or ``None``, in which
    case ``overrides`` must carry ``dependence_policy``/``recovery``
    explicitly (the E4 cross-product study needs points outside the
    standard five).  ``derived`` is the config a :class:`SweepPlan`
    derived for the cell (shared with every plan cell of equal inputs);
    a cell built on its own leaves it ``None`` and derives a fresh config
    on each :meth:`config` call.
    """

    instance: KernelInstance
    point: Optional[str]
    overrides: Dict[str, object] = field(default_factory=dict)
    base: Optional[MachineConfig] = None
    derived: Optional[MachineConfig] = field(default=None, repr=False,
                                             compare=False)

    def config(self) -> MachineConfig:
        """The fully-derived machine configuration for this cell."""
        if self.derived is not None:
            return self.derived
        base = self.base or default_config()
        if self.point is not None:
            policy, recovery = STANDARD_POINTS[self.point]
            return base.derive(dependence_policy=policy, recovery=recovery,
                               **self.overrides)
        return base.derive(**self.overrides)

    @property
    def label(self) -> str:
        """Human-readable cell name for logs and error messages."""
        point = self.point
        if point is None:
            point = "{}/{}".format(
                self.overrides.get("dependence_policy", "?"),
                self.overrides.get("recovery", "?"))
        extra = {k: v for k, v in self.overrides.items()
                 if k not in ("dependence_policy", "recovery")}
        suffix = "".join(f" {k}={v}" for k, v in sorted(extra.items()))
        return f"{self.instance.name} @ {point}{suffix}"


#: Override value types a plan can key a derivation by: the key holds
#: each value with its type, so ``True`` and ``1`` never share a config.
#: Other values (an ``fu_latencies`` dict) derive a config per cell.
_KEYABLE = (int, str, bool)


def _inputs_key(base: Optional[MachineConfig], point: Optional[str],
                overrides: Dict[str, object]) -> Optional[Hashable]:
    """An exact key for one derivation's inputs, or ``None`` when an
    override cannot be keyed.  A base enters by its canonical text, so
    a base mutated between two ``add`` calls is a new input."""
    items = []
    for name, value in sorted(overrides.items()):
        if type(value) not in _KEYABLE:
            return None
        items.append((name, type(value), value))
    base_text = None if base is None else base.canonical_json()
    return base_text, point, tuple(items)


def shared_config(cell: SweepCell,
                  memo: Dict[Hashable, MachineConfig]) -> MachineConfig:
    """``cell``'s config: the one ``memo`` holds for its inputs, or a
    fresh one, recorded in ``memo`` when its inputs can be keyed."""
    key = _inputs_key(cell.base, cell.point, cell.overrides)
    config = memo.get(key) if key is not None else None
    if config is None:
        config = cell.config()
        if key is not None:
            memo[key] = config
    return config


class SweepPlan:
    """An ordered collection of sweep cells.

    ``add`` returns the cell's index, so an experiment can remember where
    each grid coordinate landed and read the matching entry of the result
    list the runner hands back.
    """

    def __init__(self) -> None:
        self.cells: List[SweepCell] = []
        #: One derived config per distinct input (see the module doc).
        self._configs: Dict[Hashable, MachineConfig] = {}

    def add(self, instance: KernelInstance, point: Optional[str],
            base: Optional[MachineConfig] = None, **overrides) -> int:
        cell = SweepCell(instance, point, dict(overrides), base)
        # Derived (so validated) here: a bad cell fails at plan time.
        cell.derived = shared_config(cell, self._configs)
        self.cells.append(cell)
        return len(self.cells) - 1

    def add_points(self, instance: KernelInstance,
                   points: Tuple[str, ...],
                   base: Optional[MachineConfig] = None,
                   **overrides) -> Dict[str, int]:
        """Add one cell per machine point; returns point -> index."""
        return {point: self.add(instance, point, base, **overrides)
                for point in points}

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)
