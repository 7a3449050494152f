"""Golden-string tests for the human-facing render paths.

``SimResult.summary`` and ``Processor._debug_dump`` are read by people
(and by the watchdog's deadlock report); these tests pin their exact
bytes on deterministic runs so accidental format drift — a renamed
counter, a reordered line, a lost alignment space — is caught as a diff,
not discovered in a deadlock dump.
"""

import textwrap

import pytest

from repro.errors import SimulationError
from repro.harness.runner import golden_of
from repro.isa import ProgramBuilder
from repro.uarch.config import default_config
from repro.uarch.events import format_snapshot, machine_snapshot
from repro.uarch.processor import Processor
from repro.workloads.registry import KERNELS


def _tiny_program():
    pb = ProgramBuilder(entry="main")
    b = pb.block("main")
    addr = b.const(0x40)
    b.write(1, b.load(addr))
    b.store(addr, b.movi(7))
    b.branch("@halt")
    return pb.build()


def _mid_flight():
    """A processor stopped by the cycle cap partway through its run."""
    proc = Processor(_tiny_program(),
                     default_config(recovery="dsre", max_cycles=15), {})
    with pytest.raises(SimulationError, match="exceeded max_cycles"):
        proc.run()
    return proc


class TestSummaryGolden:
    def test_tiny_program_summary(self):
        result = Processor(_tiny_program(),
                           default_config(recovery="dsre"), {}).run()
        assert result.summary() == textwrap.dedent("""\
            cycles                 144
            committed blocks       1
            committed instructions 5
            IPC                    0.035
            executions (total)     5  (re-executions 0)
            load re-deliveries     0
            violation flushes      0
            branch redirects       0
            squashed executions    0
            network msgs sent      10  (commit-wave 8)
            L1D hit rate           0.500
            next-block accuracy    1.000""")

    def test_histogram_dsre_summary(self):
        inst = KERNELS["histogram"].build_test()
        proc = Processor(inst.program, default_config(recovery="dsre"),
                         inst.initial_regs, golden=golden_of(inst))
        assert proc.run().summary() == textwrap.dedent("""\
            cycles                 641
            committed blocks       21
            committed instructions 342
            IPC                    0.534
            executions (total)     367  (re-executions 5)
            load re-deliveries     1
            violation flushes      0
            branch redirects       1
            squashed executions    0
            network msgs sent      845  (commit-wave 561)
            L1D hit rate           0.912
            next-block accuracy    0.952""")


class TestDebugDumpGolden:
    def test_mid_flight_dump(self):
        proc = _mid_flight()
        assert proc._debug_dump() == textwrap.dedent("""\
            cycle=16 frames=1 fetch_target='@halt' inflight=None
              <Frame uid=0 seq=0 main> branch=None branch_final=False \
mem_final=False
                I1 load exec=0 state=idle slots={'OP0': 'empty'}
                I3 store exec=0 state=idle \
slots={'OP0': 'empty', 'OP1': 'empty'}""")

    def test_post_halt_dump(self):
        proc = Processor(_tiny_program(),
                         default_config(recovery="dsre"), {})
        proc.run()
        assert proc._debug_dump() == \
            "cycle=144 frames=0 fetch_target='@halt' inflight=None"

    def test_dump_is_rendered_snapshot(self):
        # _debug_dump is exactly the snapshot pipeline — the pull-based
        # machine view and the formatter cannot drift from it.
        proc = _mid_flight()
        snap = machine_snapshot(proc)
        assert proc._debug_dump() == format_snapshot(snap)
        assert snap["cycle"] == 16
        assert snap["n_frames"] == 1
        assert snap["frames"][0]["nodes"][0]["opcode"] == "load"
