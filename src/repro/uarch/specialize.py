"""Block activation plans: the per-block code cache the processor runs.

EDGE blocks are immutable and block-atomic, so everything about how a
block's instructions talk to the fabric — which coordinate each target
lives at, the routed latency of every edge, which buffer position a token
lands in, the FU latency of every static instruction — is fixed per
(block, machine point).  This module compiles it once into a
:class:`BlockPlan` and caches the plan on the block object, next to the
frame template (``block._frame_template``), in a bounded LRU keyed by the
:func:`machine_point_key` of the running config.  Every block the
processor maps executes from its plan; there is no other path.

The processor sends *flat tuples* through the operand network, and the
delivery sweep in ``Processor.run`` decodes them positionally.  After the
heap's ``(arrive, seq, ...)`` ordering, an entry is:

====  =========================================================
code  entry
====  =========================================================
``0`` ``(0, coord, frame_uid, node_idx, buf_pos, producer, wave,
      value, final)`` — instruction operand token
``1`` ``(1, coord, frame_uid, write_idx, producer, wave, value,
      final)`` — register write-slot token
``2`` ``(2, coord, frame_uid, producer, wave, value, final)`` —
      branch-unit token
``3`` ``(3, coord, frame_uid, lsid, addr, wave, final)`` — load
      request; ``addr`` is ``None`` for a null-load notice
``4`` ``(4, coord, frame_uid, lsid, addr, value, wave, final, null,
      addr_final)`` — store update
``5`` ``(5, coord, frame_uid, node_idx, value, final,
      is_redelivery)`` — LSQ load response (or confirmation)
``6`` ``(6, coord, frame_uid, read_idx, value, wave, final)`` —
      cross-frame register forward
====  =========================================================

Plans are **immutable after compilation**.  Arrival cycles follow the
mesh rule ``now + max(1, routed)`` (``max(1, routed + access latency)``
for load responses), and every send takes the network's shared ``_seq``,
so delivery order is fixed by the send order alone.  Compilation cannot
fail on a validated program: ``Block`` validation rejects the only shapes
a plan could not route (an instruction target without a mapped slot, or
out of range), and ``Processor`` validates the program it runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple

from ..isa.instruction import TARGET_WRITE
from ..isa.opcodes import OP_INFO

#: Bound on cached plans per block: one entry per machine point seen.
#: Sweeps visit a handful of points per block; the cap only matters for
#: config-sweep experiments that scan geometry/latency axes, where
#: recompiling an evicted point is microseconds.
PLAN_CACHE_CAP = 8

#: Delivery-hook kind name of each flat entry code.
FLAT_KIND_NAMES = ("TOKEN", "TOKEN", "TOKEN", "LOAD_REQ", "STORE_UPD",
                   "LOAD_RESP", "REG_FWD")


#: Geometry tables (see :func:`geometry_tables`) per distinct
#: ``(grid_width, grid_height, local_latency, base_latency,
#: hop_latency)``, the only fields they read.  Shared between processors
#: and plans as tuples, so no reader can write another's; keyed by
#: value, so a config never reaches another geometry's tables.
_GEOMETRY: Dict[Tuple[int, ...], Tuple] = {}

#: More distinct geometries than any sweep uses; past it the memo starts
#: over (a long session over random configs stays bounded).
_GEOMETRY_CAP = 64


def geometry_tables(config) -> Tuple[tuple, tuple, tuple, tuple, int,
                                     tuple]:
    """``(inst_tile, inst_coord, tile_coords, resp_route, fwd_delta,
    deltas)`` for ``config``'s geometry, computed once per distinct
    geometry.

    ``inst_tile`` and ``inst_coord`` map each instruction index of a
    block (up to 128) to its tile and the tile's coordinate, and
    ``tile_coords`` each tile index to its coordinate; ``resp_route``
    is the raw routed latency from the LSQ to each tile, ``fwd_delta``
    the clamped control-to-control delay of a register forward.
    ``deltas[a][b]`` is the clamped delay ``max(1, route)`` between two
    fabric positions: the tiles by index, then the control unit
    (position ``n_tiles``) and the LSQ (``n_tiles + 1``).
    """
    key = (config.grid_width, config.grid_height, config.local_latency,
           config.base_latency, config.hop_latency)
    tables = _GEOMETRY.get(key)
    if tables is not None:
        return tables
    inst_tile = tuple(config.tile_of_instruction(i) for i in range(128))
    inst_coord = tuple(config.tile_coord(t) for t in inst_tile)
    route = config.route_latency
    lsq_coord = config.lsq_coord
    control_coord = config.control_coord
    n_tiles = config.n_tiles
    points = tuple(config.tile_coord(i) for i in range(n_tiles)) \
        + (control_coord, lsq_coord)
    resp_route = tuple(route(lsq_coord, points[i]) for i in range(n_tiles))
    fwd_delta = max(1, route(control_coord, control_coord))
    deltas = tuple(tuple(max(1, route(src, dst)) for dst in points)
                   for src in points)
    tables = (inst_tile, inst_coord, points[:n_tiles], resp_route,
              fwd_delta, deltas)
    # Only plain ints key the memo: ``4`` and ``4.0`` are equal keys but
    # would build different tables.
    if all(type(value) is int for value in key):
        if len(_GEOMETRY) >= _GEOMETRY_CAP:
            _GEOMETRY.clear()
        _GEOMETRY[key] = tables
    return tables


def machine_point_key(config) -> Tuple:
    """The subset of a MachineConfig a :class:`BlockPlan` depends on.

    Only geometry and latency fields enter a plan: the tile grid (target
    coordinates and the instruction->tile mapping), the three routing
    latencies (precomputed per-edge deltas), and the FU latency table
    (as a set of items: equal tables are equal keys whatever their
    order).  Everything else — policies, window size, port bandwidth,
    cache geometry — is read at delivery/issue time and never baked in,
    so two configs that agree on this key share compiled plans.
    """
    return (config.grid_width, config.grid_height, config.hop_latency,
            config.base_latency, config.local_latency,
            frozenset(config.fu_latencies.items()))


class BlockPlan:
    """One block's compiled activation plan for one machine point.

    All fields are tuples (or read-only dicts) built once by
    :func:`compile_plan`; nothing here is ever mutated afterwards, which
    is what makes sharing one plan across every frame — and every
    processor at the same machine point — safe.
    """

    __slots__ = ("sends", "reads", "read_keys", "branch_deltas",
                 "lsq_deltas", "latencies", "latency_by_id")

    def __init__(self, sends, reads, read_keys, branch_deltas, lsq_deltas,
                 latencies, latency_by_id):
        #: Per instruction index: tuple of send entries, each
        #: ``(1, coord, write_idx, delta)`` for a write-slot target or
        #: ``(0, coord, node_idx, buf_pos, delta)`` for an operand target.
        self.sends = sends
        #: Per read index: the same entry shape, sourced at control.
        self.reads = reads
        #: Per read index: the interned ``("read", i)`` producer key.
        self.read_keys = read_keys
        #: Per instruction index: ``max(1, route(tile, control))``.
        self.branch_deltas = branch_deltas
        #: Per instruction index: ``max(1, route(tile, lsq))``.
        self.lsq_deltas = lsq_deltas
        #: Per instruction index: FU latency at this machine point.
        self.latencies = latencies
        #: ``id(inst) -> latency`` — merged into the processor's
        #: ``_op_latency`` table at plan fetch; the issue loop reads FU
        #: latencies from nowhere else.
        self.latency_by_id = latency_by_id


def _compile_targets(targets, src, inst_tile, inst_coord, slot_vals,
                     control, control_coord, deltas):
    """Send entries for one static target list sent from fabric
    position ``src`` (see :func:`geometry_tables`)."""
    from_src = deltas[src]
    entries = []
    for target in targets:
        index = target.index
        if target.kind is TARGET_WRITE:
            entries.append((1, control_coord, index, from_src[control]))
        else:
            pos = slot_vals[index].index(target.slot._value_)
            entries.append((0, inst_coord[index], index, pos,
                            from_src[inst_tile[index]]))
    return tuple(entries)


def compile_plan(block, config) -> BlockPlan:
    """Compile a validated block's plan for ``config``'s machine point.

    Coordinates and routed deltas come from the geometry's tables
    (:func:`geometry_tables`), one lookup per edge.
    """
    from .frame import frame_template
    #: Per node: the slot values backing ``_buffer_list``, in list order.
    slot_vals = tuple(tuple(spec[0] for spec in nt[2])
                      for nt in frame_template(block)[0])

    instructions = block.instructions
    inst_tile, inst_coord, _, _, _, deltas = geometry_tables(config)
    control = config.n_tiles
    lsq = control + 1
    control_coord = config.control_coord

    sends = tuple(_compile_targets(inst.targets, inst_tile[idx], inst_tile,
                                   inst_coord, slot_vals, control,
                                   control_coord, deltas)
                  for idx, inst in enumerate(instructions))
    reads = tuple(_compile_targets(read.targets, control, inst_tile,
                                   inst_coord, slot_vals, control,
                                   control_coord, deltas)
                  for read in block.reads)

    fu_latencies = config.fu_latencies
    latencies = tuple(fu_latencies[OP_INFO[inst.opcode].op_class]
                      for inst in instructions)
    tiles = inst_tile[:len(instructions)]
    return BlockPlan(
        sends=sends,
        reads=reads,
        read_keys=tuple(("read", ri) for ri in range(len(block.reads))),
        branch_deltas=tuple(deltas[tile][control] for tile in tiles),
        lsq_deltas=tuple(deltas[tile][lsq] for tile in tiles),
        latencies=latencies,
        latency_by_id={id(inst): lat
                       for inst, lat in zip(instructions, latencies)},
    )


def plan_for(block, key: Tuple, config) -> Tuple[BlockPlan, bool]:
    """Fetch (or compile) the plan for ``(block, key)``.

    Returns ``(plan, compiled)``: ``compiled`` is True when this call
    paid a compilation rather than hitting the block's LRU cache.  The
    cache lives on the block object itself — next to ``_frame_template``
    and with the same lifetime, so ``Block.invalidate_caches`` drops it
    — bounded at :data:`PLAN_CACHE_CAP` entries with least-recently-used
    eviction.
    """
    cache = getattr(block, "_plan_cache", None)
    if cache is None:
        cache = block._plan_cache = OrderedDict()
    plan = cache.get(key)
    if plan is not None:
        cache.move_to_end(key)
        return plan, False
    plan = compile_plan(block, config)
    cache[key] = plan
    if len(cache) > PLAN_CACHE_CAP:
        cache.popitem(last=False)
    return plan, True
