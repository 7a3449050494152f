"""Machine configuration (the paper's Table 1 equivalent).

One :class:`MachineConfig` instance fully describes a simulated machine:
the execution-tile grid, operand network, memory system, block-control
resources, speculation policy and recovery mechanism.  Experiments are
expressed as variations of :func:`default_config`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, List, Tuple

from ..errors import ConfigError
from ..isa.opcodes import OpClass

#: Coordinates are (x, y); execution tiles occupy x in [0, width) and
#: y in [0, height).  Shared units sit on the x = -1 edge column.
Coord = Tuple[int, int]


#: Every functional-unit class, in declaration order (``validate``
#: checks each one's latency).
_OP_CLASSES = tuple(OpClass)


def _default_latencies() -> Dict[OpClass, int]:
    return {
        OpClass.INT_ALU: 1,
        OpClass.INT_MUL: 3,
        OpClass.INT_DIV: 12,
        OpClass.MEM_LOAD: 1,    # address generation; cache time is separate
        OpClass.MEM_STORE: 1,
        OpClass.BRANCH: 1,
    }


@dataclass
class MachineConfig:
    """All knobs of the simulated EDGE machine."""

    # --- Execution substrate -----------------------------------------
    grid_width: int = 4
    grid_height: int = 4
    issue_width_per_tile: int = 1
    fu_latencies: Dict[OpClass, int] = field(
        default_factory=_default_latencies)

    # --- Operand network ----------------------------------------------
    hop_latency: int = 1          # cycles per Manhattan hop
    base_latency: int = 0         # fixed injection latency
    local_latency: int = 1        # same-tile producer->consumer latency
    port_bandwidth: int = 4       # tokens a tile accepts per cycle

    # --- Block control -------------------------------------------------
    max_frames: int = 8           # in-flight blocks (window = frames * 128)
    block_fetch_cycles: int = 3   # fetch+map pipeline occupancy per block
    icache_miss_penalty: int = 10
    icache_entries: int = 64      # fully-associative block cache (LRU)

    # --- Memory system ---------------------------------------------------
    lsq_forward_latency: int = 2
    lsq_response_hops: bool = True  # charge network hops LSQ <-> tiles
    l1_size: int = 32 * 1024
    l1_assoc: int = 2
    l1_line: int = 64
    l1_hit_latency: int = 2
    l2_size: int = 1024 * 1024
    l2_assoc: int = 8
    l2_hit_latency: int = 12
    dram_latency: int = 100
    commit_store_bandwidth: int = 2   # stores drained per cycle at commit

    # --- Speculation ---------------------------------------------------
    #: Dependence policy name: conservative | aggressive | storeset | oracle.
    dependence_policy: str = "aggressive"
    storeset_ssit_size: int = 1024
    storeset_lfst_size: int = 256
    #: Recovery protocol name; valid values are whatever is registered in
    #: :mod:`repro.uarch.recovery` (``protocol_names()``).
    recovery: str = "dsre"
    #: Hybrid recovery only: once a frame has absorbed this many load
    #: re-deliveries, the next wrong value escalates to a flush.
    hybrid_redelivery_limit: int = 4
    #: Transactional-wave recovery only: frames per commit/rollback epoch
    #: (the epoch size policy).  1 degenerates to per-block commit.
    txwave_epoch_blocks: int = 4
    #: Next-block predictor: "lasttarget" or "perfect".
    next_block_predictor: str = "lasttarget"
    predictor_entries: int = 2048

    # --- Harness ---------------------------------------------------------
    check_with_golden: bool = True
    watchdog_cycles: int = 400_000   # max cycles with no commit progress
    max_cycles: int = 50_000_000

    #: Fields omitted from :meth:`to_dict` while at their default value.
    #: Fields added *after* results exist go here so that configs which do
    #: not exercise them serialise exactly as before — keeping every
    #: previously computed ``stable_hash`` (the sweep cache key) valid.
    _ELIDE_AT_DEFAULT: ClassVar[FrozenSet[str]] = frozenset(
        {"hybrid_redelivery_limit", "txwave_epoch_blocks"})

    # ------------------------------------------------------------------

    def validate(self) -> None:
        # Imported here: the recovery package's protocol modules import
        # simulator types, which import this module.
        from .recovery import get_protocol
        if self.grid_width < 1 or self.grid_height < 1:
            raise ConfigError("grid must be at least 1x1")
        if self.max_frames < 1:
            raise ConfigError("need at least one frame")
        get_protocol(self.recovery)
        if self.hybrid_redelivery_limit < 0:
            raise ConfigError("hybrid_redelivery_limit must be >= 0")
        if self.txwave_epoch_blocks < 1:
            raise ConfigError("txwave_epoch_blocks must be >= 1")
        if self.dependence_policy not in (
                "conservative", "aggressive", "storeset", "oracle"):
            raise ConfigError(
                f"unknown dependence policy {self.dependence_policy!r}")
        if self.next_block_predictor not in ("lasttarget", "perfect"):
            raise ConfigError(
                f"unknown next-block predictor {self.next_block_predictor!r}")
        if self.port_bandwidth < 1:
            raise ConfigError("port bandwidth must be >= 1")
        latencies = self.fu_latencies
        for klass in _OP_CLASSES:
            if latencies.get(klass, 0) < 1:
                raise ConfigError(f"latency for {klass} must be >= 1")

    # --- Geometry -------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return self.grid_width * self.grid_height

    def tile_coord(self, tile_index: int) -> Coord:
        return (tile_index % self.grid_width, tile_index // self.grid_width)

    def tile_of_instruction(self, inst_index: int) -> int:
        """Static mapping of block instruction index -> execution tile."""
        return inst_index % self.n_tiles

    @property
    def control_coord(self) -> Coord:
        """Block control + register file + branch unit location."""
        return (-1, 0)

    @property
    def lsq_coord(self) -> Coord:
        """LSQ + data cache location."""
        return (-1, self.grid_height - 1)

    def route_latency(self, src: Coord, dst: Coord) -> int:
        if src == dst:
            return self.local_latency
        hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
        return self.base_latency + self.hop_latency * hops

    @property
    def window_capacity(self) -> int:
        """Maximum in-flight instructions (frames x block size)."""
        return self.max_frames * 128

    # --- Derivation -------------------------------------------------------

    def derive(self, **overrides) -> "MachineConfig":
        """A copy of this config with the given fields replaced."""
        clone = dataclasses.replace(self, **overrides)
        clone.fu_latencies = dict(
            overrides.get("fu_latencies", self.fu_latencies))
        clone.validate()
        return clone

    # --- Serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict covering every field (round-trips exactly).

        ``fu_latencies`` is keyed by :class:`OpClass` name so the result
        survives JSON; key order is canonical (sorted) so two equal configs
        always serialise identically.  Fields in :data:`_ELIDE_AT_DEFAULT`
        are omitted while at their default (``from_dict`` restores them),
        so configs that predate those fields keep their serialised form —
        and their ``stable_hash`` cache keys.
        """
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in self._ELIDE_AT_DEFAULT and value == f.default:
                continue
            if f.name == "fu_latencies":
                value = {klass.name: value[klass]
                         for klass in sorted(value, key=lambda k: k.name)}
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineConfig":
        """Inverse of :meth:`to_dict`; validates the result."""
        if not isinstance(data, dict):
            raise ConfigError("a config must be an object")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(
                f"unknown config fields: {', '.join(sorted(unknown))}")
        kwargs = dict(data)
        if "fu_latencies" in kwargs:
            if not isinstance(kwargs["fu_latencies"], dict):
                raise ConfigError("fu_latencies must be an object")
            try:
                kwargs["fu_latencies"] = {
                    OpClass[name]: lat
                    for name, lat in kwargs["fu_latencies"].items()}
            except KeyError as exc:
                raise ConfigError(f"unknown op class {exc}") from None
        config = cls(**kwargs)
        config.validate()
        return config

    def canonical_json(self) -> str:
        """A canonical one-line JSON form (stable across processes/runs)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def stable_hash(self) -> str:
        """SHA-256 of the canonical form — the cache-key component."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def t1_rows(self) -> List[Tuple[str, str]]:
        """Rows of the machine-configuration table (experiment T1)."""
        return [
            ("Execution tiles", f"{self.grid_width}x{self.grid_height} grid, "
             f"{self.issue_width_per_tile}-issue each"),
            ("Operand network", f"{self.hop_latency} cycle/hop mesh, "
             f"{self.port_bandwidth} tokens/tile/cycle"),
            ("Instruction window", f"{self.max_frames} frames x 128 insts "
             f"= {self.window_capacity}"),
            ("Block fetch", f"{self.block_fetch_cycles} cycles/block, "
             f"{self.icache_entries}-entry block cache "
             f"({self.icache_miss_penalty}-cycle miss)"),
            ("L1 D-cache", f"{self.l1_size // 1024}KB {self.l1_assoc}-way, "
             f"{self.l1_line}B lines, {self.l1_hit_latency}-cycle hit"),
            ("L2 cache", f"{self.l2_size // 1024}KB {self.l2_assoc}-way, "
             f"{self.l2_hit_latency}-cycle hit"),
            ("Main memory", f"{self.dram_latency} cycles"),
            ("LSQ forward", f"{self.lsq_forward_latency} cycles"),
            ("Dependence policy", self.dependence_policy),
            ("Recovery", self.recovery),
            ("Next-block predictor", self.next_block_predictor),
        ]


def default_config(**overrides) -> MachineConfig:
    """The baseline machine used throughout the evaluation."""
    config = MachineConfig()
    if overrides:
        config = config.derive(**overrides)
    else:
        config.validate()
    return config
