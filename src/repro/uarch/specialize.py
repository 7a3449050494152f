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
from typing import Tuple

from ..isa.opcodes import op_info
from ..isa.instruction import TargetKind

#: Bound on cached plans per block: one entry per machine point seen.
#: Sweeps visit a handful of points per block; the cap only matters for
#: config-sweep experiments that scan geometry/latency axes, where
#: recompiling an evicted point is microseconds.
PLAN_CACHE_CAP = 8

#: Delivery-hook kind name of each flat entry code.
FLAT_KIND_NAMES = ("TOKEN", "TOKEN", "TOKEN", "LOAD_REQ", "STORE_UPD",
                   "LOAD_RESP", "REG_FWD")


def machine_point_key(config) -> Tuple:
    """The subset of a MachineConfig a :class:`BlockPlan` depends on.

    Only geometry and latency fields enter a plan: the tile grid (target
    coordinates and the instruction->tile mapping), the three routing
    latencies (precomputed per-edge deltas), and the FU latency table.
    Everything else — policies, window size, port bandwidth, cache
    geometry — is read at delivery/issue time and never baked in, so two
    configs that agree on this key share compiled plans.
    """
    fu = tuple(sorted((klass.name, latency)
                      for klass, latency in config.fu_latencies.items()))
    return (config.grid_width, config.grid_height, config.hop_latency,
            config.base_latency, config.local_latency, fu)


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


def _compile_targets(targets, src, coords, slot_vals, control, delta):
    """Send entries for one static target list."""
    entries = []
    for target in targets:
        if target.kind is TargetKind.WRITE:
            entries.append((1, control, target.index, delta(src, control)))
        else:
            pos = slot_vals[target.index].index(target.slot._value_)
            coord = coords[target.index]
            entries.append((0, coord, target.index, pos, delta(src, coord)))
    return tuple(entries)


def compile_plan(block, config) -> BlockPlan:
    """Compile a validated block's plan for ``config``'s machine point."""
    from .frame import _build_frame_template
    template = getattr(block, "_frame_template", None)
    if template is None:
        template = _build_frame_template(block)
        block._frame_template = template
    node_templates = template[0]
    #: Per node: the slot values backing ``_buffer_list``, in list order.
    slot_vals = tuple(tuple(val for val, _ in nt[2])
                      for nt in node_templates)

    instructions = block.instructions
    n_tiles = config.n_tiles
    control = config.control_coord
    lsq = config.lsq_coord
    coords = tuple(config.tile_coord(i % n_tiles)
                   for i in range(len(instructions)))
    route = config.route_latency

    def delta(src, dst):
        return max(1, route(src, dst))

    sends = tuple(_compile_targets(inst.targets, coords[idx], coords,
                                   slot_vals, control, delta)
                  for idx, inst in enumerate(instructions))
    reads = tuple(_compile_targets(read.targets, control, coords,
                                   slot_vals, control, delta)
                  for read in block.reads)

    fu_latencies = config.fu_latencies
    latencies = tuple(fu_latencies[op_info(inst.opcode).op_class]
                      for inst in instructions)
    return BlockPlan(
        sends=sends,
        reads=reads,
        read_keys=tuple(("read", ri) for ri in range(len(block.reads))),
        branch_deltas=tuple(delta(coords[i], control)
                            for i in range(len(instructions))),
        lsq_deltas=tuple(delta(coords[i], lsq)
                         for i in range(len(instructions))),
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
