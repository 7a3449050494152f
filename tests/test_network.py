"""The operand mesh's rules, tested on the code that applies them: the
routed deltas a block plan compiles, the sends of ``Processor._fan_out``,
``_push`` and ``_send_load_resp``, and the delivery sweep of
``Processor.run`` (observed through an ``EventTrace``)."""

from repro.uarch.config import default_config
from repro.uarch.events import EventTrace
from repro.uarch.processor import Processor
from repro.uarch.specialize import compile_plan

from .conftest import build_single_block

#: A frame uid no run ever maps: entries addressed to it are delivered
#: (port, counters, hook) and then dropped by their handlers.
DEAD_UID = 10_000


def _program():
    return build_single_block(lambda b: b.write(1, b.movi(1)))


def _entry(code, dest):
    """A flat entry of ``code`` (3, 5 or 6; 7 fields each) for DEAD_UID."""
    return (code, dest, DEAD_UID, 0, 0, 0, False)


def _run_with(sends, **overrides):
    """Run the one-block program with extra entries pushed at cycle 0.

    ``sends`` are ``(delay, code, dest)``.  Returns the run's result and
    the ``(cycle, kind)`` of every delivery that is not an operand token
    (the program's own traffic is operand tokens only)."""
    proc = Processor(_program(), default_config(**overrides))
    trace = EventTrace()
    proc.attach_hooks(trace)
    for delay, code, dest in sends:
        proc._push(delay, _entry(code, dest), False)
    result = proc.run()
    delivered = [(e.cycle, e.data["msg_kind"]) for e in trace.events
                 if e.kind == "deliver" and e.data["msg_kind"] != "TOKEN"]
    return result, delivered


class TestLatency:
    def test_manhattan_distance(self):
        config = default_config()
        assert config.route_latency((0, 0), (3, 3)) == 6
        assert config.route_latency((0, 0), (1, 0)) == 1

    def test_local_latency(self):
        config = default_config(local_latency=1)
        assert config.route_latency((2, 2), (2, 2)) == 1

    def test_hop_latency_scales(self):
        config = default_config(hop_latency=3)
        assert config.route_latency((0, 0), (2, 0)) == 6

    def test_plan_deltas_are_routed_latencies(self):
        config = default_config(hop_latency=2)
        block = _program().block("main")
        plan = compile_plan(block, config)
        coords = [config.tile_coord(config.tile_of_instruction(i))
                  for i in range(len(block.instructions))]
        control = config.control_coord
        for i, entries in enumerate(plan.sends):
            for entry in entries:
                dest = control if entry[0] else entry[1]
                assert entry[-1] == config.route_latency(coords[i], dest)
        assert plan.branch_deltas == tuple(
            config.route_latency(c, control) for c in coords)

    def test_minimum_one_cycle(self):
        # With a zero same-tile latency every edge of a one-tile grid
        # routes in 0 cycles; the plan still delivers a cycle later.
        config = default_config(local_latency=0, grid_width=1,
                                grid_height=1)
        block = build_single_block(
            lambda b: b.write(1, b.add(b.movi(2), b.movi(3)))).block("main")
        plan = compile_plan(block, config)
        operand = [entry for entries in plan.sends for entry in entries
                   if entry[0] == 0]
        assert operand
        assert config.route_latency((0, 0), (0, 0)) == 0
        assert all(entry[4] == 1 for entry in operand)

    def test_fan_out_arrives_now_plus_delta(self):
        proc = Processor(_program(), default_config(hop_latency=2))
        proc._map_frame("main")
        frame = proc.frames[0]
        proc.network._heap.clear()
        proc.network.now = 20
        sends = frame.plan.sends[0]
        proc._fan_out(frame.uid, sends, ("inst", 0), 1, 7, False)
        arrivals = sorted(arrive for arrive, _, _ in proc.network._heap)
        assert arrivals == sorted(20 + entry[-1] for entry in sends)

    def test_load_response_minimum_one_cycle(self):
        # A zero-hop mesh and no access latency: the response still
        # arrives a cycle after it is sent.
        proc = Processor(_program(), default_config(hop_latency=0))
        proc.network.now = 10
        proc._send_load_resp(DEAD_UID, 0, 5, False, False, 0)
        assert proc.network._heap[0][0] == 11

    def test_extra_latency(self):
        # The LSQ's access latency rides on top of the routed hops.
        proc = Processor(_program(), default_config())
        config = proc.config
        route = config.route_latency(config.lsq_coord, config.tile_coord(0))
        proc.network.now = 0
        proc._send_load_resp(DEAD_UID, 0, 5, False, False, 10)
        assert proc.network._heap[0][0] == route + 10

    def test_delivery_time(self):
        _, delivered = _run_with([(3, 6, (2, 0))])
        assert delivered == [(3, "REG_FWD")]


class TestContention:
    def test_port_bandwidth_enforced(self):
        result, delivered = _run_with([(1, 6, (1, 0))] * 5,
                                      port_bandwidth=2)
        assert [cycle for cycle, _ in delivered] == [1, 1, 2, 2, 3]
        # Three slipped at cycle 1 and one at cycle 2.
        assert result.network_stats.contention_slips == 4

    def test_slips_keep_send_order(self):
        kinds = [(6, "REG_FWD"), (5, "LOAD_RESP"), (3, "LOAD_REQ"),
                 (6, "REG_FWD")]
        _, delivered = _run_with([(1, code, (1, 0)) for code, _ in kinds],
                                 port_bandwidth=1)
        assert delivered == [(cycle, kind) for cycle, (_, kind)
                             in enumerate(kinds, start=1)]

    def test_different_destinations_no_contention(self):
        result, delivered = _run_with([(1, 6, (1, 0)), (1, 6, (0, 1))],
                                      port_bandwidth=1)
        assert delivered == [(1, "REG_FWD"), (1, "REG_FWD")]
        assert result.network_stats.contention_slips == 0


class TestStats:
    def test_counts(self):
        bare, _ = _run_with([])
        proc = Processor(_program(), default_config())
        proc._push(1, _entry(6, (1, 0)), False)
        proc._push(1, _entry(6, (1, 0)), True)
        stats = proc.run().network_stats
        assert stats.sent == bare.network_stats.sent + 2
        assert stats.delivered == bare.network_stats.delivered + 2
        assert stats.final_sent == bare.network_stats.final_sent + 1

    def test_next_event_cycle(self):
        # A halted processor has nothing pending; an entry pushed then is
        # the run's next event, at its earliest arrival.
        proc = Processor(_program(), default_config())
        proc.run()
        assert proc._next_event_cycle() is None
        now = proc.network.now
        assert now == proc.cycle
        proc._push(5, _entry(6, (2, 0)), False)
        assert proc._next_event_cycle() == now + 5
        proc._push(2, _entry(6, (2, 0)), False)
        assert proc._next_event_cycle() == now + 2
        assert len(proc.network._heap) == 2
