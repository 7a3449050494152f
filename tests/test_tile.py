"""The tile walk's issue rules, tested on ``Processor``: whole runs
observed through an ``EventTrace``, and ``_map_frame``/``squash_from``/
``_enqueue`` on a processor about to run."""

from collections import Counter

from repro.isa import Opcode, ProgramBuilder
from repro.uarch.config import default_config
from repro.uarch.events import EventTrace
from repro.uarch.processor import Processor

from .conftest import build_single_block


def _constants_program(n=6):
    """One block of ``n`` MOVIs, each written to its own register: every
    node, the branch included, has no inputs and is ready at map."""
    def body(b):
        for k in range(n):
            b.write(k + 1, b.movi(k))
    return build_single_block(body)


def _loop_program():
    """``init`` (two constants) branching to a one-node ``loop``."""
    pb = ProgramBuilder(entry="init")
    b = pb.block("init")
    b.write(1, b.movi(5))
    b.write(2, b.movi(7))
    b.branch("loop")
    b = pb.block("loop")
    b.write(3, b.add(b.read(1), b.read(2)))
    b.branch("@halt")
    return pb.build()


def _processor(program, recycle=True, **overrides):
    overrides.setdefault("grid_width", 1)
    overrides.setdefault("grid_height", 1)
    overrides.setdefault("issue_width_per_tile", 1)
    proc = Processor(program, default_config(**overrides),
                     recycle_frames=recycle)
    trace = EventTrace()
    proc.attach_hooks(trace)
    return proc, trace


def _issues(trace):
    return [(e.cycle, e.data["frame_uid"], e.data["node"])
            for e in trace.events if e.kind == "issue"]


def _mul_program():
    """``r1 = 3 * 5 + 1``: a MUL (a multi-cycle FU pass) feeding an ADD."""
    return build_single_block(
        lambda b: b.write(1, b.add(b.mul(b.movi(3), imm=5), imm=1)))


def _mul_timing(proc, trace):
    """``(issued, done)``: the MUL's issue cycle and FU completion cycle."""
    insts = proc.program.block("main").instructions
    mul = next(i for i, inst in enumerate(insts) if inst.opcode is Opcode.MUL)
    issued = next(cycle for cycle, _, node in _issues(trace) if node == mul)
    latency = proc._op_latency[id(insts[mul])]
    assert latency > 1
    return issued, issued + latency


def _watch_next_event(proc):
    """Record ``(cycle, wake, tiles_due, tile 0 active)`` after every
    ``_next_event_cycle`` scan of the run."""
    log = []
    scan = proc._next_event_cycle

    def watched():
        wake = scan()
        log.append((proc.cycle, wake, proc._tiles_due,
                    0 in proc._active_tiles))
        return wake

    proc._next_event_cycle = watched
    return log


class TestIssue:
    def test_issues_ready_node(self):
        proc, trace = _processor(build_single_block(
            lambda b: b.write(1, b.movi(3))))
        result = proc.run()
        assert proc.arch.get_reg(1) == 3
        assert sorted(node for _, _, node in _issues(trace)) == [0, 1]
        assert result.stats.executions == 2

    def test_issue_width_respected(self):
        proc, trace = _processor(_constants_program(6),
                                 issue_width_per_tile=2)
        proc.run()
        per_cycle = Counter(cycle for cycle, _, _ in _issues(trace))
        assert max(per_cycle.values()) == 2
        # Seven ready nodes (six MOVIs and the branch) drain two a cycle.
        first = min(per_cycle)
        assert [per_cycle[first + k] for k in range(4)] == [2, 2, 2, 1]

    def test_oldest_frame_first(self):
        # Two frames of ``init`` mapped before the first cycle: the
        # younger (a wrong path: init branches to loop) waits for every
        # node of the older one.
        proc, trace = _processor(_loop_program())
        proc._map_frame("init")
        proc._map_frame("init")
        proc.run()
        order = [uid for _, uid, _ in _issues(trace)]
        assert order[:4] == [0, 0, 0, 1]
        assert proc.arch.get_reg(3) == 12

    def test_dead_frames_skipped(self):
        # Squash a mapped frame whose nodes are queued; without recycling
        # its nodes keep their life, so only the dead-frame check skips
        # their entries.
        proc, trace = _processor(_loop_program(), recycle=False)
        proc._map_frame("init")
        tile = proc.tiles[0]
        assert len(tile._ready) == 3
        proc.squash_from(0, "init", cause="branch")
        proc.run()
        assert all(uid != 0 for _, uid, _ in _issues(trace))
        assert proc.arch.get_reg(3) == 12

    def test_duplicate_enqueue_coalesced(self):
        proc, _ = _processor(_constants_program(2))
        proc._map_frame("main")
        frame = proc.frames[0]
        tile = proc.tiles[0]
        queued = len(tile._ready)
        proc._enqueue(frame, frame.nodes[0])
        proc._enqueue(frame, frame.nodes[0])
        assert len(tile._ready) == queued
        assert tile._queued[frame.nodes[0]] == frame.nodes[0].life

    def test_unready_node_skipped(self):
        proc, _ = _processor(build_single_block(
            lambda b: b.write(1, b.add(b.read(1), b.read(2)))))
        proc._map_frame("main")
        frame = proc.frames[0]
        add = next(n for n in frame.nodes if n.inst.opcode is Opcode.ADD)
        tile = proc.tiles[0]
        assert add not in tile._queued
        proc._on_node_event(frame, add)
        assert add not in tile._queued


class TestCompletion:
    def test_latency_respected(self):
        # A MUL's consumer issues once the MUL's FU pass and the
        # same-tile delivery are over, not before.
        proc, trace = _processor(_mul_program())
        proc.run()
        insts = proc.program.block("main").instructions
        index = {inst.opcode: i for i, inst in enumerate(insts)}
        issued = {node: cycle for cycle, _, node in _issues(trace)}
        mul_latency = proc._op_latency[id(insts[index[Opcode.MUL]])]
        assert mul_latency > 1
        assert (issued[index[Opcode.ADD]] - issued[index[Opcode.MUL]]
                == mul_latency + proc.config.local_latency)
        assert proc.arch.get_reg(1) == 16

    def test_next_completion(self):
        # With no ready entry left, the walk is next due at the earliest
        # FU completion, and the run skips the idle cycles before it.
        proc, trace = _processor(_mul_program())
        log = _watch_next_event(proc)
        proc.run()
        issued, done = _mul_timing(proc, trace)
        due = {cycle: tiles_due for cycle, _, tiles_due, _ in log}
        assert due[issued] == done
        cycles = [cycle for cycle, _, _, _ in log]
        assert done in cycles and done - 1 not in cycles

    def test_busy_flag(self):
        # A tile is active from its first enqueue until the walk finds it
        # drained; an FU pass in progress keeps it active.
        proc, trace = _processor(_mul_program())
        assert proc._active_tiles == set()
        proc._map_frame("main")
        assert proc._active_tiles == {0}
        log = _watch_next_event(proc)
        proc.run()
        issued, done = _mul_timing(proc, trace)
        active = {cycle: flag for cycle, _, _, flag in log}
        assert all(flag for cycle, flag in active.items()
                   if issued <= cycle < done)
        # Drained once the MUL completes: the ADD's operand is in flight.
        assert not active[done]
        assert active[done + proc.config.local_latency]
        assert proc._active_tiles == set()
