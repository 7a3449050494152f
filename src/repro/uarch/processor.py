"""The cycle-level EDGE processor model.

Pulls the substrates together: frames of dataflow nodes mapped across the
execution-tile grid, the operand mesh, the LSQ, block fetch with next-block
prediction, and in-order block commit.  Mis-speculation recovery is owned
by a pluggable :class:`~repro.uarch.recovery.base.RecoveryProtocol`
(``flush``, ``dsre``, ``hybrid``, ...): the protocol decides the response
to a wrong load value and the frame-level commit gate, while the processor
keeps only mechanism-agnostic plumbing — the squash/refetch path (shared
with branch redirects, see :meth:`Processor.squash_from`) and the
commit-wave token machinery, enabled by the protocol's
``requires_commit_wave`` capability flag rather than by its name.

Every block executes from its compiled :class:`~repro.uarch.specialize
.BlockPlan`: sends are flat tuples on the operand network's heap (the
entry codes are tabulated in :mod:`repro.uarch.specialize`), and
:meth:`Processor.run` holds the one delivery sweep and the one tile walk.

Optionally, a structured event sink (:class:`~repro.uarch.events
.EventHooks`) can be attached via :meth:`Processor.attach_hooks`; with no
sink attached every emission site is a single ``is None`` test.

The timing model never bypasses architecture: committed register and memory
state is compared block-by-block against the functional golden model when
``check_with_golden`` is on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..arch.interp import run_program
from ..arch.state import ArchState
from ..arch.trace import ExecutionTrace
from ..core.node import (NODE_EXECUTING, NODE_IDLE, OUT_BRANCH,
                         OUT_LOAD_REQUEST, OUT_NULL, OUT_STORE_UPDATE,
                         OUT_VALUE, InstructionNode, Outcome)
from ..core.tokens import STATUS_EMPTY
from ..errors import GoldenMismatchError, SimulationError
from ..isa.program import HALT_LABEL, Program
from ..spec import build_policy
from ..stats import counters as _counters
from ..stats.counters import InvarianceCertificate, SimStats
from .cache import BlockCache, build_hierarchy
from .config import MachineConfig, default_config
from .events import EventHooks, format_snapshot, machine_snapshot
from .frame import Frame
from .lsq import Confirmed, LoadResponse, LoadStoreQueue, Violation
from .network import OperandNetwork
from .predictor import build_predictor
from .recovery import build_recovery
from .specialize import (FLAT_KIND_NAMES, BlockPlan, machine_point_key,
                         plan_for)
from .tile import ExecTile

#: Arena bound: retired frames kept per block.  The cap only bounds
#: memory held between bursts — a miss simply allocates a fresh frame.
_FRAME_ARENA_CAP = 8

#: Sentinel "no tile work scheduled" cycle (past any legal max_cycles).
_NEVER = 1 << 62


@dataclass
class SimResult:
    """Everything a harness needs from one timing run."""

    stats: SimStats
    config: MachineConfig
    arch: ArchState
    lsq_stats: object
    network_stats: object
    l1_stats: object
    predictor_stats: object
    halted: bool
    #: Point-invariance certificate; ``None`` only for legacy callers that
    #: build SimResult by hand (treated as non-forwardable by the sweep).
    certificate: object = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def summary(self) -> str:
        s = self.stats
        lines = [
            f"cycles                 {s.cycles}",
            f"committed blocks       {s.committed_blocks}",
            f"committed instructions {s.committed_instructions}",
            f"IPC                    {s.ipc:.3f}",
            f"executions (total)     {s.executions}"
            f"  (re-executions {s.reexecutions})",
            f"load re-deliveries     {s.load_redeliveries}",
            f"violation flushes      {s.violation_flushes}",
            f"branch redirects       {s.branch_redirects}",
            f"squashed executions    {s.squashed_executions}",
            f"network msgs sent      {self.network_stats.sent}"
            f"  (commit-wave {self.network_stats.final_sent})",
            f"L1D hit rate           {self.l1_stats.hit_rate:.3f}",
            f"next-block accuracy    {self.predictor_stats.accuracy:.3f}",
        ]
        return "\n".join(lines)


class Processor:
    """One simulated machine executing one program."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 initial_regs: Optional[Dict[int, int]] = None,
                 golden: Optional[ExecutionTrace] = None,
                 max_blocks: int = 1_000_000,
                 recycle_frames: bool = True,
                 frame_arena: Optional[Dict[str, List["Frame"]]] = None):
        self.config = config or default_config()
        self.config.validate()
        program.validate()
        self.program = program
        self.initial_regs = dict(initial_regs or {})

        needs_golden = (self.config.check_with_golden
                        or self.config.dependence_policy == "oracle"
                        or self.config.next_block_predictor == "perfect")
        if golden is None and needs_golden:
            golden, _ = run_program(program, self.initial_regs, max_blocks)
        self.golden = golden

        self.arch = ArchState.for_program(program, self.initial_regs)
        self.dcache = build_hierarchy(self.config)
        self.icache = BlockCache(self.config.icache_entries,
                                 self.config.icache_miss_penalty)
        self.network = OperandNetwork(self.config)
        self.policy = build_policy(self.config, golden)
        self.protocol = build_recovery(self.config)
        self.protocol.bind(self)
        # FORCE_DIRTY is read through the module so the soundness suite
        # can flip it after import.
        self.certificate = InvarianceCertificate(
            forced=int(bool(_counters.FORCE_DIRTY)))
        self.lsq = LoadStoreQueue(self.arch.memory, self.dcache, self.policy,
                                  self.config.lsq_forward_latency,
                                  self.protocol,
                                  certificate=self.certificate)
        self.predictor = build_predictor(self.config, golden)
        self.predictor.certificate = self.certificate
        self.tiles = [ExecTile(i, self.config.tile_coord(i),
                               self.config.issue_width_per_tile)
                      for i in range(self.config.n_tiles)]
        #: Tiles holding ready or executing nodes — the only ones the main
        #: loop ticks or polls.  A tile enters on enqueue and leaves when
        #: observed drained; a drained tile cannot schedule work by itself.
        self._active_tiles: set = set()
        #: Earliest cycle at which the tile walk has any work (a ready
        #: entry or a due completion).  Maintained by ``_next_event_cycle``
        #: and forced to "now" by ``_enqueue``; lets ``run`` skip the
        #: tile walk on cycles where every active tile is merely counting
        #: down an FU.
        self._tiles_due = 0

        self.frames: List[Frame] = []            # oldest first
        self.frames_by_uid: Dict[int, Frame] = {}
        self.next_uid = 0

        self.fetch_seq = 0
        self.fetch_target: str = program.entry
        self.fetch_inflight: Optional[Tuple[str, int]] = None

        self.cycle = 0
        self.commit_ready_cycle = 0
        self.last_commit_cycle = 0
        self.done = False
        self.stats = SimStats()
        # Hot-path lookup tables: the static instruction-index -> tile
        # coordinate map, the control/LSQ coordinates (the config exposes
        # them as properties, which rebuild tuples per access), the routed
        # LSQ -> tile latency behind every load response, per tile (the
        # LSQ adds its access latency before the ``max(1, ...)`` clamp, so
        # the raw route is kept), the control-to-control delay of a
        # register forward, and per-instruction FU latency (seeded from
        # each block's plan at first map).
        self._inst_tile = [self.config.tile_of_instruction(i)
                           for i in range(128)]
        self._inst_coord = [self.config.tile_coord(t)
                            for t in self._inst_tile]
        self._control_coord = self.config.control_coord
        self._lsq_coord = self.config.lsq_coord
        route = self.config.route_latency
        self._resp_route = [route(self._lsq_coord, tile.coord)
                            for tile in self.tiles]
        self._fwd_delta = max(1, route(self._control_coord,
                                       self._control_coord))
        self._op_latency: Dict[int, int] = {}
        #: Protocol capability flag, read on every node event: commit-wave
        #: protocols need finality upgrades and store address-finality
        #: notices; completion-gated ones have no use for either.
        self._commit_wave = self.protocol.requires_commit_wave
        #: The protocol's commit gate, bound once — polled by
        #: ``_tick_commit`` while the commit signal is raised.
        self._outputs_ready = self.protocol.frame_outputs_ready
        #: "The commit gate may have opened."  Raised by the events that
        #: can open a built-in gate — a write-slot or branch deposit that
        #: changed the slot, and an LSQ delivery — and cleared only by a
        #: poll that finds the gate shut, so a committing poll leaves it
        #: raised for the next head.  ``run`` polls only while it is
        #: raised.  Part of the protocol-facing surface: a gate that
        #: reads other state must raise it (docs/PROTOCOL.md §2-§3).
        self.commit_signal = False
        #: Epoch seam: frame-seq -> epoch mapping, bound once (the
        #: degenerate mapping is identity, so per-frame commit is the
        #: epoch-of-one special case).
        self._epoch_of = self.protocol.epoch_of
        #: Optional structured event sink (``attach_hooks``); every
        #: emission site costs one ``is None`` test while unset.
        self.hooks: Optional[EventHooks] = None
        #: Next-event cycle computed by the previous ``_check_progress``;
        #: consumed (and cleared) by the next ``_advance_cycle`` so the
        #: scan runs once per loop iteration, not twice.
        self._next_event_memo: Optional[int] = None
        #: Arena recycling (behavior-preserving; a ctor flag rather than
        #: a MachineConfig field so cache keys and ``stable_hash`` stay
        #: untouched).  Retired frames park in a per-block free list and
        #: are reset-on-reuse in ``_map_frame``.  Stale tile-heap entries
        #: are life-guarded, never scrubbed, so event timing is identical
        #: to fresh allocation.  The arena may be supplied by the caller
        #: to share parked frames across the machine points of one kernel
        #: (the harness passes one arena per *program object*, so a
        #: frame's ``block`` reference is always a block of the running
        #: program); ``reset_for_reuse`` restores every mutable field, so
        #: cross-processor reuse is as clean as same-run reuse.
        self._recycle = recycle_frames
        self._frame_arena: Dict[str, List[Frame]] = (
            frame_arena if frame_arena is not None else {})
        #: Compiled activation plans (repro.uarch.specialize), fetched per
        #: block at first map and memoized per processor.  The
        #: machine-point key is derived once — plans are shared across
        #: processors through the per-block LRU cache, but always
        #: re-fetched per processor because the config may differ.
        self._spec_key = machine_point_key(self.config)
        self._block_plans: Dict[str, BlockPlan] = {}
        #: Recycling counters (plain attributes — SimStats is pinned by
        #: the cache record layout).
        self.frames_allocated = 0
        self.frames_recycled = 0

    def attach_hooks(self, hooks: Optional[EventHooks]) -> None:
        """Install (or with ``None``, remove) the structured event sink."""
        self.hooks = hooks

    # ==================================================================
    # Main loop
    # ==================================================================

    def run(self) -> SimResult:
        """Simulate until the program halts; returns the result bundle.

        The per-cycle sequence (advance to the next event cycle, deliver,
        tick tiles / fetch / commit, check progress) is written out inline:
        on serial kernels the loop body runs once per simulated cycle and
        the call overhead of phase helpers is measurable.  The delivery
        sweep and the tile walk exist only here.  Fetch and commit are
        entered only when they can act: fetch when a block has arrived or
        one can start, commit while the commit signal is raised.
        """
        config = self.config
        max_cycles = config.max_cycles
        max_frames = config.max_frames
        watchdog = config.watchdog_cycles
        bandwidth = config.port_bandwidth
        lsq = self.lsq
        network = self.network
        heap = network._heap        # in-place heap, never reassigned
        netstats = network.stats
        port_use = network._port_use
        frames_by_uid = self.frames_by_uid
        tiles = self.tiles
        active_tiles = self._active_tiles
        stats = self.stats
        op_latency = self._op_latency
        hooks = self.hooks
        pop = heapq.heappop
        push = heapq.heappush
        while not self.done:
            # Advance to the next event cycle.  Nothing runs between the
            # previous iteration's memoized scan and this point, so the
            # memo is still exact; only the first iteration (no memo yet)
            # computes it here.
            nxt = self._next_event_memo
            self._next_event_memo = None
            if nxt is None:
                nxt = self._next_event_cycle()
            cycle = self.cycle
            cycle = nxt if (nxt is not None and nxt > cycle + 1) \
                else cycle + 1
            self.cycle = cycle
            lsq.now = cycle
            # Send paths read ``network.now`` even on cycles with no
            # arrivals, so the clock always advances; the delivery sweep
            # itself only runs when something is due.
            network.now = cycle

            # --- Delivery sweep.  ``OperandNetwork.deliver_due`` inline,
            # dispatching each entry as it pops instead of building a list
            # first.  That is equivalent: handlers only ever *send*
            # (arrivals land at ``now + 1`` or later, so they cannot join
            # this sweep), handler order equals delivery order either way,
            # and contention slips requeue at ``now + 1`` so pushing them
            # mid-sweep cannot re-pop them.  Entries are flat tuples
            # ``(code, dest, ...)``; see repro.uarch.specialize.
            if heap and heap[0][0] <= cycle:
                if cycle != network._port_cycle:
                    port_use.clear()
                    network._port_cycle = cycle
                while heap and heap[0][0] <= cycle:
                    arrive, seq, msg = pop(heap)
                    dest = msg[1]
                    used = port_use.get(dest, 0)
                    if used >= bandwidth:
                        netstats.contention_slips += 1
                        push(heap, (cycle + 1, seq, msg))
                        continue
                    port_use[dest] = used + 1
                    netstats.delivered += 1
                    netstats.total_latency += cycle - (arrive - 1)
                    code = msg[0]
                    if hooks is not None:
                        hooks.on_deliver(cycle, FLAT_KIND_NAMES[code])
                    if code == 0:                 # instruction operand
                        frame = frames_by_uid.get(msg[2])
                        if frame is None:
                            continue
                        node = frame.nodes[msg[3]]
                        buffer = node._buffer_list[msg[4]]
                        node._sig_cache = None
                        changed, finality = buffer.deposit4(
                            msg[5], msg[6], msg[7], msg[8])
                        if changed or finality:
                            self._on_node_event(frame, node)
                    elif code == 1:               # write slot
                        frame = frames_by_uid.get(msg[2])
                        if frame is not None:
                            self._deposit_write(frame, msg[3], msg[4],
                                                msg[5], msg[6], msg[7])
                    elif code == 2:               # branch unit
                        frame = frames_by_uid.get(msg[2])
                        if frame is not None:
                            self._deposit_branch(frame, msg[3], msg[4],
                                                 msg[5], msg[6])
                    elif code == 3:               # load request / null
                        if msg[2] in frames_by_uid:
                            self.commit_signal = True
                            if msg[4] is None:
                                actions = lsq.load_null(msg[2], msg[3],
                                                        msg[5], msg[6])
                            else:
                                actions = lsq.load_request(
                                    msg[2], msg[3], msg[4], msg[5], msg[6])
                            self._process_lsq_actions(actions)
                    elif code == 4:               # store update
                        if msg[2] in frames_by_uid:
                            self.commit_signal = True
                            self._process_lsq_actions(lsq.store_update(
                                msg[2], msg[3], msg[4], msg[5], msg[6],
                                msg[7], null=msg[8], addr_final=msg[9]))
                    elif code == 5:               # load response
                        self._deliver_load_resp(msg)
                    else:                         # register forward
                        self._deliver_reg_fwd(msg)

            # --- Tile walk.  ``ExecTile.pop_completed`` / ``issue_ready``
            # inline (same pop order, same bookkeeping).  Snapshot, sorted
            # to keep the tile order: handlers below may activate further
            # tiles mid-walk, and those wait for the next cycle.
            if active_tiles and self._tiles_due <= cycle:
                drained = None
                for index in sorted(active_tiles):
                    tile = tiles[index]
                    executing = tile._executing
                    while executing and executing[0][0] <= cycle:
                        entry = pop(executing)
                        node = entry[2]
                        # Life guard first: a recycled node's new uid is
                        # live, so only the generation tag identifies its
                        # previous life's leftover entries.
                        if entry[3] != node.life:
                            continue
                        frame = frames_by_uid.get(node.frame_uid)
                        if frame is None:
                            continue
                        outcome = node.complete_execution()
                        stats.executions += 1
                        if node.exec_count > 1:
                            stats.reexecutions += 1
                        # One signature comparison decides both the
                        # commit rule and re-issue.  Emitting only sends
                        # (arrivals land at now + 1 or later), so the
                        # buffers and the signature are the same before
                        # and after it.  Unchanged: final once every
                        # input is, nothing to re-issue.  Changed: not
                        # final, re-issue once every slot resolves.
                        sig = node._sig_cache
                        if sig is None:
                            sig = node.current_signature()
                        if sig == node.issued_signature:
                            final = True
                            for b in node._buffer_list:
                                if not b.final:
                                    final = False
                                    break
                            self._emit_node_output(frame, node, outcome,
                                                   final)
                        else:
                            self._emit_node_output(frame, node, outcome,
                                                   False)
                            for b in node._buffer_list:
                                if b.status is STATUS_EMPTY:
                                    break
                            else:
                                self._enqueue(frame, node)
                    ready = tile._ready
                    if ready:
                        queued = tile._queued
                        width = tile.issue_width
                        issued = 0
                        while ready and issued < width:
                            entry = pop(ready)
                            node = entry[3]
                            life = entry[4]
                            if life != node.life:
                                # Stale entry of a recycled node; the
                                # current life's dedup membership must
                                # survive it.
                                continue
                            if queued.get(node) == life:
                                del queued[node]
                            if node.frame_uid not in frames_by_uid:
                                continue
                            # Inline ``can_issue`` + ``_begin_issued``
                            # (one signature for the check and the issue).
                            if node.state is not NODE_IDLE:
                                continue
                            for b in node._buffer_list:
                                if b.status is STATUS_EMPTY:
                                    break
                            else:
                                sig = node.current_signature()
                                if node.exec_count != 0 \
                                        and sig == node.issued_signature:
                                    continue
                                node.state = NODE_EXECUTING
                                node.issued_signature = sig
                                node.exec_count += 1
                                stats.fu_work_issued += 1
                                tile._push_seq += 1
                                push(executing,
                                     (cycle + op_latency[id(node.inst)],
                                      tile._push_seq, node, life))
                                issued += 1
                                if hooks is not None:
                                    hooks.on_issue(cycle, node.frame_uid,
                                                   node.index,
                                                   node.inst.opcode.value,
                                                   node.exec_count)
                    if not (ready or executing):
                        if drained is None:
                            drained = [index]
                        else:
                            drained.append(index)
                if drained is not None:
                    # Re-check: a later tile's handler may have
                    # re-activated a drained tile.
                    for index in drained:
                        tile = tiles[index]
                        if not (tile._ready or tile._executing):
                            active_tiles.discard(index)

            inflight = self.fetch_inflight
            if inflight is None:
                if (self.fetch_target != HALT_LABEL
                        and len(self.frames) < max_frames):
                    self._tick_fetch()
            elif cycle >= inflight[1]:
                self._tick_fetch()
            if (self.commit_signal and self.frames
                    and cycle >= self.commit_ready_cycle):
                self._tick_commit()
            # Progress check (watchdog + next-event memo for the advance
            # at the top of the next iteration).
            cycle = self.cycle
            if cycle > max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles}")
            if cycle - self.last_commit_cycle > watchdog:
                raise SimulationError(
                    f"no commit for {watchdog} cycles; "
                    f"likely deadlock\n{self._debug_dump()}")
            if self.done:
                break
            if (not self.frames and self.fetch_inflight is None
                    and self.fetch_target == HALT_LABEL):
                self.done = True
                break
            nxt = self._next_event_cycle()
            self._next_event_memo = nxt
            if nxt is None:
                raise SimulationError(
                    f"no pending events but not halted\n{self._debug_dump()}")
        self.stats.cycles = self.cycle
        return SimResult(self.stats, self.config, self.arch,
                         self.lsq.stats, self.network.stats,
                         self.dcache.stats, self.predictor.stats,
                         halted=True, certificate=self.certificate)

    def _next_event_cycle(self) -> Optional[int]:
        # ``cycle + 1`` is the earliest any event can be, so the ready-tile
        # and fetch checks may return immediately; the rest tracks the
        # minimum inline (no list build — this runs every iteration).
        best: Optional[int] = None
        tiles = self.tiles
        for index in self._active_tiles:
            tile = tiles[index]
            if tile._ready:
                self._tiles_due = self.cycle + 1
                return self.cycle + 1
            executing = tile._executing
            if executing:
                completion = executing[0][0]
                if best is None or completion < best:
                    best = completion
        # No ready entries anywhere: the tile walk next does work at the
        # earliest FU completion.  ``run`` skips the tile walk until
        # then; any mid-cycle enqueue pulls the due cycle back to "now"
        # (see ``_enqueue``).
        self._tiles_due = best if best is not None else _NEVER
        if self.fetch_inflight is not None:
            if len(self.frames) < self.config.max_frames:
                arrival = self.fetch_inflight[1]
                if best is None or arrival < best:
                    best = arrival
        elif self.fetch_target != HALT_LABEL \
                and len(self.frames) < self.config.max_frames:
            return self.cycle + 1
        heap = self.network._heap
        if heap:
            net = heap[0][0]
            if best is None or net < best:
                best = net
        if self.frames and self.commit_ready_cycle > self.cycle:
            if best is None or self.commit_ready_cycle < best:
                best = self.commit_ready_cycle
        return best

    def _debug_dump(self) -> str:
        return format_snapshot(machine_snapshot(self))

    # ==================================================================
    # Delivery handlers (LSQ responses and register forwards)
    # ==================================================================

    def _deliver_load_resp(self, msg) -> None:
        _, _, uid, index, value, final, is_redelivery = msg
        frame = self.frames_by_uid.get(uid)
        if frame is None:
            return
        node = frame.nodes[index]
        if is_redelivery:
            self.stats.load_redeliveries += 1
            self.stats.dependence_mispeculations += 1
            hooks = self.hooks
            if hooks is not None:
                hooks.on_redeliver(self.cycle, uid, index, value, final)
        emission = node.plan_emission(value, final)
        if emission is not None:
            wave, value, final = emission
            self._fan_out(uid, frame.plan.sends[index], node._producer_key,
                          wave, value, final)

    def _deliver_reg_fwd(self, msg) -> None:
        _, _, uid, ri, value, wave, final = msg
        frame = self.frames_by_uid.get(uid)
        if frame is None:
            return
        fwd = frame.read_forwards[ri]
        if wave < fwd.wave:
            return
        if wave == fwd.wave and value == fwd.value:
            if fwd.final or not final:
                return
            fwd.final = True        # pure finality upgrade
        else:
            fwd.wave, fwd.value, fwd.final = wave, value, final
        plan = frame.plan
        self._fan_out(uid, plan.reads[ri], plan.read_keys[ri], wave, value,
                      final)

    # ==================================================================
    # Sends
    # ==================================================================

    def _fan_out(self, uid: int, entries, producer, wave: int, value,
                 final: bool) -> None:
        """Token fan-out: push one flat entry per static target.

        ``entries`` is one instruction's (or read slot's) precompiled send
        list — coordinates, buffer positions and routed-latency deltas all
        resolved at plan compile time — so the loop is pure heap pushes.
        Arrival is ``now + max(1, routed)`` (baked into each entry's
        delta); every push takes the network's next shared ``_seq``.
        """
        network = self.network
        stats = network.stats
        n = len(entries)
        if value is None:
            stats.null_sent += n
        stats.sent += n
        if final:
            stats.final_sent += n
        if wave > 1:
            self.stats.wave_operand_sends += n
        heap = network._heap
        now = network.now
        seq = network._seq
        push = heapq.heappush
        for entry in entries:
            seq += 1
            if entry[0]:
                push(heap, (now + entry[3], seq,
                            (1, entry[1], uid, entry[2], producer, wave,
                             value, final)))
            else:
                push(heap, (now + entry[4], seq,
                            (0, entry[1], uid, entry[2], entry[3], producer,
                             wave, value, final)))
        network._seq = seq

    def _push(self, delay: int, entry: tuple, final: bool) -> None:
        """Inject one flat entry arriving ``delay`` (>= 1) cycles from now."""
        network = self.network
        stats = network.stats
        stats.sent += 1
        if final:
            stats.final_sent += 1
        seq = network._seq + 1
        network._seq = seq
        heapq.heappush(network._heap, (network.now + delay, seq, entry))

    def _send_branch_token(self, frame: Frame, node: InstructionNode,
                           wave: int, value, final: bool) -> None:
        if wave > 1:
            self.stats.wave_operand_sends += 1
        self._push(frame.plan.branch_deltas[node.index],
                   (2, self._control_coord, frame.uid, node._producer_key,
                    wave, value, final), final)

    def _send_load_resp(self, uid: int, index: int, value: int,
                        final: bool, is_redelivery: bool,
                        extra_latency: int) -> None:
        # The LSQ's access latency rides on top of the routed hops, and
        # the sum — not the route alone — is clamped to one cycle.
        delay = self._resp_route[self._inst_tile[index]] + extra_latency
        self._push(delay if delay > 1 else 1,
                   (5, self._inst_coord[index], uid, index, value, final,
                    is_redelivery), final)

    def _send_reg_fwd(self, uid: int, ri: int, value: int, wave: int,
                      final: bool) -> None:
        self._push(self._fwd_delta,
                   (6, self._control_coord, uid, ri, value, wave, final),
                   final)

    # ==================================================================
    # Node lifecycle
    # ==================================================================

    def _enqueue(self, frame: Frame, node: InstructionNode) -> None:
        # Inline ``ExecTile.enqueue`` (life-keyed dedup + heap push).
        tile_index = self._inst_tile[node.index]
        tile = self.tiles[tile_index]
        queued = tile._queued
        life = node.life
        if queued.get(node) != life:
            queued[node] = life
            tile._push_seq += 1
            heapq.heappush(tile._ready,
                           (frame.seq, node.index, tile._push_seq, node,
                            life))
        self._active_tiles.add(tile_index)
        # A fresh ready entry must be seen by this cycle's (or the next
        # possible) tile walk; ``_next_event_cycle`` re-tightens this at
        # the end of the iteration.
        self._tiles_due = 0

    def _on_node_event(self, frame: Frame, node: InstructionNode) -> None:
        """An input changed: re-issue if needed, else maybe finalise.

        Finality-upgrade traffic (the explicit commit wave) only exists
        under commit-wave protocols; completion-gated machines have no use
        for it.
        """
        # Inline ``node.can_issue`` (state + resolution + signature): this
        # runs once per token-buffer change, the highest-frequency event.
        if node.state is NODE_IDLE:
            for b in node._buffer_list:
                if b.status is STATUS_EMPTY:
                    break
            else:
                if node.exec_count == 0 \
                        or node.current_signature() != node.issued_signature:
                    self._enqueue(frame, node)
                    return
        if not self._commit_wave:
            return
        if (node.state is NODE_IDLE and node.exec_count > 0
                and node.output_final_ready()):
            self._emit_node_output(frame, node, node.last_outcome,
                                   final=True)
        elif (node.inst.is_store and node.last_outcome is not None
              and node.last_outcome.kind is OUT_STORE_UPDATE
              and node.addr_inputs_final()):
            # Address-only finality: lets the LSQ disambiguate this store
            # against non-overlapping loads before its data commits.
            self._send_store_upd(frame, node, node.last_outcome.addr,
                                 node.last_outcome.store_value,
                                 null=False, final=False, addr_final=True)

    def _emit_node_output(self, frame: Frame, node: InstructionNode,
                          outcome: Optional[Outcome], final: bool) -> None:
        """Route one execution's outcome (or a finality upgrade) outward."""
        if outcome is None:
            return
        inst = node.inst
        if outcome.kind is OUT_VALUE:
            emission = node.plan_emission(outcome.value, final)
            if emission is not None:
                wave, value, fin = emission
                self._fan_out(frame.uid, frame.plan.sends[node.index],
                              node._producer_key, wave, value, fin)
        elif outcome.kind is OUT_BRANCH:
            emission = node.plan_emission(outcome.value, final)
            if emission is not None:
                wave, value, fin = emission
                self._send_branch_token(frame, node, wave, value, fin)
        elif outcome.kind is OUT_LOAD_REQUEST:
            self._send_load_req(frame, node, outcome.addr, final)
        elif outcome.kind is OUT_STORE_UPDATE:
            self._send_store_upd(frame, node, outcome.addr,
                                 outcome.store_value, null=False, final=final,
                                 addr_final=node.addr_inputs_final())
        elif outcome.kind is OUT_NULL:
            if inst.is_store:
                self._send_store_upd(frame, node, None, None,
                                     null=True, final=final)
            elif inst.is_branch:
                emission = node.plan_emission(None, final)
                if emission is not None:
                    wave, value, fin = emission
                    self._send_branch_token(frame, node, wave, None, fin)
            else:
                emission = node.plan_emission(None, final)
                if emission is not None:
                    wave, value, fin = emission
                    self._fan_out(frame.uid, frame.plan.sends[node.index],
                                  node._producer_key, wave, None, fin)
                if inst.is_load:
                    self._send_load_null(frame, node, final)

    def _send_load_req(self, frame: Frame, node: InstructionNode,
                       addr: int, final: bool) -> None:
        key = ("req", addr, final)
        if node.last_lsq == key:
            return
        node.last_lsq = key
        self._push(frame.plan.lsq_deltas[node.index],
                   (3, self._lsq_coord, frame.uid, node.inst.lsid, addr,
                    node.exec_count, final), final)

    def _send_store_upd(self, frame: Frame, node: InstructionNode,
                        addr: Optional[int], value: Optional[int],
                        null: bool, final: bool,
                        addr_final: bool = False) -> None:
        key = ("upd", addr, value, null, final, addr_final or final)
        if node.last_lsq == key:
            return
        node.last_lsq = key
        self._push(frame.plan.lsq_deltas[node.index],
                   (4, self._lsq_coord, frame.uid, node.inst.lsid, addr,
                    value, node.exec_count, final, null,
                    addr_final or final), final)

    def _send_load_null(self, frame: Frame, node: InstructionNode,
                        final: bool) -> None:
        key = ("null", final)
        if node.last_lsq == key:
            return
        node.last_lsq = key
        # A null-load notice is a load request without an address: the
        # LSQ only needs the (lsid, wave, final) bookkeeping.
        self._push(frame.plan.lsq_deltas[node.index],
                   (3, self._lsq_coord, frame.uid, node.inst.lsid, None,
                    node.exec_count, final), final)

    # ==================================================================
    # Write-slot and branch-unit handling
    # ==================================================================

    def _deposit_write(self, frame: Frame, wi: int, producer, wave: int,
                       value, final: bool) -> None:
        buffer = frame.write_buffers[wi]
        changed, finality = buffer.deposit4(producer, wave, value, final)
        if not (changed or finality):
            return
        self.commit_signal = True
        if buffer.value is None:
            return
        state = (buffer.value, buffer.final)
        if frame.write_forwarded[wi] == state:
            return
        old = frame.write_forwarded[wi]
        if old is None or old[0] != state[0]:
            frame.write_fwd_wave[wi] += 1
        frame.write_forwarded[wi] = state
        for sub_uid, read_idx in frame.subscribers[wi]:
            if sub_uid not in self.frames_by_uid:
                continue
            self._send_reg_fwd(sub_uid, read_idx, state[0],
                               frame.write_fwd_wave[wi], state[1])

    def _deposit_branch(self, frame: Frame, producer, wave: int, value,
                        final: bool) -> None:
        buffer = frame.branch_buffer
        changed, finality = buffer.deposit4(producer, wave, value, final)
        if not (changed or finality):
            return
        self.commit_signal = True
        label = buffer.value
        if label is None:
            return
        self._resolve_branch(frame, label, wave=wave)

    def _resolve_branch(self, frame: Frame, label: str, wave: int) -> None:
        is_last = self.frames and self.frames[-1] is frame
        if not is_last and frame.fetched_next is not None \
                and frame.fetched_next != label:
            self.stats.branch_redirects += 1
            if wave > 1:
                self.stats.late_branch_redirects += 1
            self.squash_from(frame.seq + 1, label, cause="branch")
        elif is_last:
            if self.fetch_seq == frame.seq + 1 and self.fetch_target != label:
                self.stats.branch_redirects += 1
                if wave > 1:
                    self.stats.late_branch_redirects += 1
                self.fetch_target = label
                self.fetch_inflight = None

    # ==================================================================
    # LSQ interface
    # ==================================================================

    def _process_lsq_actions(self, actions) -> None:
        for action in actions:
            if isinstance(action, LoadResponse):
                frame = self.frames_by_uid.get(action.entry.frame_uid)
                if frame is None:
                    continue
                node = frame.node_of_lsid(action.entry.lsid)
                self._send_load_resp(frame.uid, node.index, action.value,
                                     action.final, action.is_redelivery,
                                     action.latency)
            elif isinstance(action, Confirmed):
                frame = self.frames_by_uid.get(action.entry.frame_uid)
                if frame is None:
                    continue
                node = frame.node_of_lsid(action.entry.lsid)
                self._send_load_resp(frame.uid, node.index, action.value,
                                     True, False, action.latency)
            elif isinstance(action, Violation):
                self.protocol.handle_violation(action)
            else:
                raise SimulationError(f"unknown LSQ action {action!r}")

    # ==================================================================
    # Fetch / map
    # ==================================================================

    def _tick_fetch(self) -> None:
        """Act on the fetch engine.

        ``run`` calls this only when it can act: the in-flight block has
        arrived (map it, or count a stall cycle while the window is
        full), or nothing is in flight, the window has room and the
        target is not HALT (start a fetch).
        """
        inflight = self.fetch_inflight
        if inflight is not None:
            if len(self.frames) < self.config.max_frames:
                self.fetch_inflight = None
                self._map_frame(inflight[0])
            else:
                self.stats.fetch_stall_cycles += 1
            return
        penalty = self.config.block_fetch_cycles \
            + self.icache.access(self.fetch_target)
        self.fetch_inflight = (self.fetch_target, self.cycle + penalty)
        hooks = self.hooks
        if hooks is not None:
            hooks.on_fetch(self.cycle, self.fetch_target,
                           self.cycle + penalty)

    def _map_frame(self, name: str) -> None:
        block = self.program.block(name)
        uid = self.next_uid
        self.next_uid += 1
        seq = self.fetch_seq
        self.fetch_seq += 1
        arena = self._frame_arena.get(name)
        if arena:
            # Reset-on-reuse: the retired frame parked with its old state;
            # reset_for_reuse restores exactly what a fresh __init__ would
            # build (and bumps node lives so old heap entries stay dead).
            frame = arena.pop()
            frame.reset_for_reuse(uid, seq)
            # A shared arena can hand back a frame parked by a previous
            # machine point of this kernel; rebind its config so the
            # field stays honest (nothing reads it on the hot path).
            frame.config = self.config
            self.frames_recycled += 1
        else:
            frame = Frame(uid, seq, block, self.config)
            self.frames_allocated += 1
        frame.mapped_cycle = self.cycle
        # Attach the block's plan.  Reassigned on every map: a recycled
        # frame may have been parked by a processor at a different
        # machine point.
        plan = self._block_plans.get(name)
        if plan is None:
            plan = self._fetch_plan(block)
        self.stats.specialize_hits += 1
        frame.plan = plan
        if self.frames:
            self.frames[-1].fetched_next = name
        self.frames.append(frame)
        self.frames_by_uid[uid] = frame
        self.lsq.register_frame(uid, seq, block)
        self.stats.frames_mapped += 1
        self.stats.occupancy_samples += 1
        self.stats.occupancy_total += len(self.frames)
        hooks = self.hooks
        if hooks is not None:
            hooks.on_map(self.cycle, uid, seq, name)

        for node in frame.nodes:
            # A freshly mapped node can only issue if it has no required
            # slots at all (constants); every buffer starts EMPTY.
            if not node._buffer_list:
                self._enqueue(frame, node)

        self._wire_reads(frame)

        predicted = self.predictor.predict(block, seq)
        frame.predicted_next = predicted
        self.fetch_target = predicted
        # If this block's own (older) frames already resolved a different
        # successor, _resolve_branch will redirect when their token arrives;
        # nothing else to do here.

    def _fetch_plan(self, block) -> BlockPlan:
        """First map of a block in this run: consult the code cache.

        The plan comes from the per-block LRU.  The miss counts the *cold
        resolution* — this processor's first activation of the block —
        not the compile itself: the shared block-level cache may already
        hold the plan from an earlier run, and charging only actual
        compiles would make identical runs report different stats
        (breaking recycled-equals-fresh and pinned-counter checks).
        Per-instruction FU latencies from the plan seed ``_op_latency``,
        which is all the tile walk's issue loop consults.
        """
        self.stats.specialize_misses += 1
        plan, _compiled = plan_for(block, self._spec_key, self.config)
        self._op_latency.update(plan.latency_by_id)
        self._block_plans[block.name] = plan
        return plan

    def _wire_reads(self, frame: Frame) -> None:
        plan = frame.plan
        for ri, read in enumerate(frame.block.reads):
            source = None
            for older in reversed(self.frames[:-1]):
                wi = older.write_index_of_reg.get(read.reg)
                if wi is not None:
                    source = (older, wi)
                    break
            frame.read_sources.append(
                ("frame", source[0].uid, source[1]) if source
                else ("arch", self.arch.get_reg(read.reg)))
            if source is None:
                fwd = frame.read_forwards[ri]
                fwd.wave, fwd.value, fwd.final = (
                    1, self.arch.get_reg(read.reg), True)
                self._fan_out(frame.uid, plan.reads[ri], plan.read_keys[ri],
                              1, fwd.value, True)
            else:
                older, wi = source
                older.subscribers[wi].append((frame.uid, ri))
                forwarded = older.write_forwarded[wi]
                if forwarded is not None:
                    self._send_reg_fwd(frame.uid, ri, forwarded[0],
                                       older.write_fwd_wave[wi],
                                       forwarded[1])

    def _retire_frame(self, frame: Frame) -> None:
        """Park a dead (committed or squashed) frame in the block arena.

        The frame keeps its stale state until ``_map_frame`` reuses it —
        reset is paid on reuse, not on retirement, and leftover tile-heap
        entries keep being skipped exactly as dead-frame entries always
        were (by uid until the reset, by life afterwards).  Recovery
        protocols hold frames only by uid (docs/PROTOCOL.md), so parking
        the object is safe the moment it leaves ``frames_by_uid``.
        """
        if self._recycle:
            arena = self._frame_arena.get(frame.block.name)
            if arena is None:
                arena = self._frame_arena[frame.block.name] = []
            if len(arena) < _FRAME_ARENA_CAP:
                arena.append(frame)

    # ==================================================================
    # Squash (branch redirects and protocol-escalated violations)
    # ==================================================================

    def squash_from(self, seq: int, restart: str, cause: str) -> None:
        """Drop every frame with ``seq`` or younger; refetch ``restart``.

        Mechanism-agnostic: branch redirects use it directly, and recovery
        protocols call it from ``handle_violation`` — it is part of the
        protocol-facing processor surface (docs/PROTOCOL.md §2).
        """
        victims = [f for f in self.frames if f.seq >= seq]
        if not victims and cause == "violation":
            raise SimulationError("violation flush with no victim frames")
        dead = set()
        for frame in victims:
            dead.add(frame.uid)
            self.stats.squashed_executions += frame.total_executions()
            self.stats.squashed_instructions += len(frame.nodes)
            self.lsq.drop_frame(frame.uid)
            self.frames_by_uid.pop(frame.uid)
            self._retire_frame(frame)
        self.stats.squashed_frames += len(victims)
        self.frames = [f for f in self.frames if f.uid not in dead]
        for frame in self.frames:
            for subs in frame.subscribers:
                subs[:] = [(u, ri) for u, ri in subs if u not in dead]
        if self.frames:
            self.frames[-1].fetched_next = None
        self.fetch_seq = seq
        self.fetch_target = restart
        self.fetch_inflight = None

    # ==================================================================
    # Commit
    # ==================================================================

    def _tick_commit(self) -> None:
        """Poll the oldest frame's commit gate; commit it if open.

        ``run`` calls this while the commit signal is raised, frames are
        in flight and the store drain is done.  The gate is the
        protocol's frame-level check (bound once at construction), then
        the LSQ's per-entry memory check.  A shut gate clears the
        signal; the next event that can open it raises it again.  A
        commit leaves it raised: the new head's gate may be open already.
        """
        head = self.frames[0]
        if self._outputs_ready(head) and self.lsq.frame_mem_final(head.uid):
            self._commit(head)
        else:
            self.commit_signal = False

    def _commit(self, head: Frame) -> None:
        label = head.branch_label
        stores = self.lsq.commit_frame(head.uid)
        reg_writes = head.final_reg_writes()

        if self.golden is not None and self.config.check_with_golden:
            self._check_against_golden(head, label, reg_writes, stores)

        for addr, value, width in stores:
            self.arch.memory.write_int(addr, value, width)
            self.dcache.access(addr, is_write=True)
        for reg, value in reg_writes.items():
            self.arch.set_reg(reg, value)

        drain = math.ceil(len(stores) / self.config.commit_store_bandwidth) \
            if stores else 0
        self.commit_ready_cycle = self.cycle + max(1, drain)

        self.predictor.update(head.block, head.seq, label,
                              head.predicted_next)

        useful = head.useful_instructions()
        self.stats.committed_blocks += 1
        self.stats.committed_instructions += useful
        self.stats.committed_nulls += len(head.nodes) - useful
        self.stats.fu_work_committed += head.total_executions()
        self.last_commit_cycle = self.cycle
        hooks = self.hooks
        if hooks is not None:
            hooks.on_commit(self.cycle, head.uid, head.seq,
                            head.block.name, len(stores))

        self.frames.pop(0)
        self.frames_by_uid.pop(head.uid)
        self._retire_frame(head)

        # Epoch seam: the last frame of an epoch just committed (the HALT
        # frame always closes its epoch).  Under the degenerate
        # epoch-of-one mapping this fires once per committed frame.
        epoch = self._epoch_of(head.seq)
        if self._epoch_of(head.seq + 1) != epoch or label == HALT_LABEL:
            self.stats.epochs_closed += 1
            self.protocol.on_epoch_close(epoch)

        if label == HALT_LABEL:
            if self.frames:
                raise SimulationError(
                    "committed a HALT block with younger frames in flight")
            self.fetch_target = HALT_LABEL
            self.fetch_inflight = None
            self.done = True

    def _check_against_golden(self, head: Frame, label: str,
                              reg_writes: Dict[int, int],
                              stores) -> None:
        if head.seq >= len(self.golden.records):
            raise GoldenMismatchError(
                f"committed more blocks ({head.seq + 1}) than the golden "
                f"run ({len(self.golden.records)})")
        record = self.golden.records[head.seq]
        problems = []
        if record.name != head.block.name:
            problems.append(f"block {head.block.name!r} != {record.name!r}")
        if record.next_block != label:
            problems.append(f"next {label!r} != {record.next_block!r}")
        if record.reg_writes != reg_writes:
            problems.append(
                f"reg writes {reg_writes} != {record.reg_writes}")
        golden_stores = [(s.addr, s.value, s.width) for s in record.stores]
        if golden_stores != list(stores):
            problems.append(f"stores {stores} != {golden_stores}")
        if problems:
            raise GoldenMismatchError(
                f"commit {head.seq} ({head.block.name}): "
                + "; ".join(problems))
