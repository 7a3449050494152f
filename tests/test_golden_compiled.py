"""The compiled golden model computes exactly what the reference does.

``repro.arch.interp`` runs every block from a plan compiled once per
block (flat slot lists, a resolved ALU callable per instruction);
``repro.arch.interp_ref`` keeps the original dict-keyed worklist.  Both
run the same program here and must return the same pickled
``(trace, final state)`` bytes: the same records in the same order,
``reg_writes`` in the same insertion order, the same ``src_store``
tuple objects and ``multi_writer`` flags, and the same pages.  Pickle
bytes compare all of that at once: every field, every insertion order
and which objects are shared.  Malformed programs must fail in both
with the same ``ExecutionError`` message.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import interp, interp_ref
from repro.errors import ExecutionError
from repro.isa import Instruction, Opcode, ProgramBuilder, Slot, Target, \
    TargetKind
from repro.isa.block import Block, WriteSlot
from repro.isa.builder import Wire, _expand_fanout
from repro.isa.program import Program
from repro.workloads import KERNELS
from repro.workloads.corpus import build_corpus, sample_corpus
from repro.workloads.randprog import generate

from .conftest import build_single_block

#: A fixed slice of the corpus sample (every shape and conflict band).
CORPUS = sample_corpus(60, seed=0xC0)


def outcome(module, program, initial_regs=None, **kwargs):
    """Pickled ``(trace, state)``, or the error's type and message."""
    try:
        result = module.run_program(program, initial_regs, **kwargs)
    except ExecutionError as exc:
        return type(exc), str(exc)
    return pickle.dumps(result)


def assert_same(program, initial_regs=None, **kwargs):
    reference = outcome(interp_ref, program, initial_regs, **kwargs)
    assert outcome(interp, program, initial_regs, **kwargs) == reference
    return reference


@pytest.mark.parametrize("scale", ["test", "full"])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels(kernel, scale):
    spec = KERNELS[kernel]
    instance = spec.build_test() if scale == "test" else \
        spec.build_default()
    assert isinstance(assert_same(instance.program, instance.initial_regs),
                      bytes)


def test_corpus_slice():
    for params in CORPUS:
        instance = build_corpus(params)
        assert isinstance(
            assert_same(instance.program, instance.initial_regs), bytes)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000),
       n_blocks=st.integers(min_value=2, max_value=8),
       ops_per_block=st.integers(min_value=4, max_value=16))
def test_random_programs(seed, n_blocks, ops_per_block):
    program = generate(seed, n_blocks=n_blocks,
                       ops_per_block=ops_per_block).program
    assert isinstance(assert_same(program), bytes)


# ----------------------------------------------------------------------
# Hand-written programs: byte-level load rules (overlay, last writer,
# page and address wraps), predicated memory, negative immediates
# ----------------------------------------------------------------------

def _partial_overwrites(pb):
    """A whole word, then one byte of it two blocks later, then a load:
    the youngest writer is not the first byte's."""
    b = pb.block("a")
    b.store(b.const(0x300), b.movi(0x1122334455667788))
    b.branch("b")
    b = pb.block("b")
    b.store(b.const(0x300), b.movi(0xAB), width=1, offset=2)
    b.store(b.const(0x308), b.movi(0xCD), width=2)
    b.branch("c")
    b = pb.block("c")
    addr = b.const(0x300)
    b.write(1, b.load(addr))
    b.write(2, b.load(addr, width=4, offset=4))
    b.write(5, b.load(addr, width=2))
    b.write(3, b.load(addr, width=8, offset=4))
    b.store(addr, b.movi(0x77), width=1, offset=5)
    b.write(4, b.load(addr, width=8))
    b.branch("@halt")


def _in_block_overlay(pb):
    """Two one-byte stores, a straddling load, and a load after a store
    of a different width in the same block."""
    b = pb.block("m")
    addr = b.const(0x100)
    b.store(addr, b.movi(0x11), width=1)
    b.store(addr, b.movi(0x22), width=1, offset=1)
    b.write(1, b.load(addr, width=2))
    b.store(addr, b.movi(0x3344), width=2, offset=1)
    b.write(2, b.load(addr, width=4))
    b.write(3, b.load(addr, width=1, offset=2))
    b.branch("@halt")
    pb.data_words("d", 0x100, [0xFFEEDDCCBBAA9988])


def _page_straddle(pb):
    """Loads and stores across a 4 KiB page boundary, with and without
    an overlay in the block."""
    b = pb.block("a")
    b.write(1, b.load(b.const(0xFFC)))
    b.store(b.const(0xFFE), b.movi(0xA1A2A3A4), width=4)
    b.branch("b")
    b = pb.block("b")
    b.write(2, b.load(b.const(0xFFA)))
    b.store(b.const(0x1FFF), b.movi(0x5A), width=1)
    b.write(3, b.load(b.const(0x1FFC), width=8))
    b.branch("@halt")
    pb.data_words("d", 0xFF8, [0x0102030405060708, 0x1112131415161718])


def _address_wraps(pb):
    """Accesses that cross 2**48 (the memory's address mask) and 2**64
    (the carrier wrap): overlay and last-writer keys are 64-bit."""
    b = pb.block("a")
    b.store(b.const(2 ** 48 - 4), b.movi(0x0102030405060708))
    b.store(b.const(2 ** 64 - 2), b.movi(0xBEEF), width=4)
    b.write(1, b.load(b.const(2 ** 48 - 2), width=4))
    b.branch("b")
    b = pb.block("b")
    b.write(2, b.load(b.const(2 ** 48 - 8)))
    b.write(3, b.load(b.const(0), width=8))
    b.write(4, b.load(b.const(2 ** 64 - 4), width=8))
    b.branch("@halt")
    pb.data_words("d", 0, [0x99])


def _predicated_memory(pb):
    """Nullified loads and stores keep their place in LSID order."""
    b = pb.block("m")
    p = b.tgt(b.read(5), imm=3)
    addr = b.const(0x40)
    b.store(addr, b.movi(7), pred=(p, True))
    b.store(addr, b.movi(9), pred=(p, False))
    hit = b.load(addr, pred=(p, True))
    miss = b.load(addr, offset=8, pred=(p, False))
    b.write(1, hit)
    b.write(1, miss)
    b.branch("@halt")
    pb.data_words("d", 0x40, [1, 2])


def _negative_immediates(pb):
    """Negative immediates as a constant, an operand and a displacement
    (the carrier is unsigned)."""
    b = pb.block("m")
    b.write(1, b.movi(-5))
    b.write(2, b.add(b.read(5), imm=-3))
    b.write(3, b.load(b.const(0x48), offset=-8))
    b.branch("@halt")
    pb.data_words("d", 0x40, [0x1234])


HAND_WRITTEN = {
    "negative_immediates": (_negative_immediates, "m"),
    "partial_overwrites": (_partial_overwrites, "a"),
    "in_block_overlay": (_in_block_overlay, "m"),
    "page_straddle": (_page_straddle, "a"),
    "address_wraps": (_address_wraps, "a"),
    "predicated_memory": (_predicated_memory, "m"),
}


@pytest.mark.parametrize("regs", [{5: 1}, {5: 4}])
@pytest.mark.parametrize("case", sorted(HAND_WRITTEN))
def test_hand_written(case, regs):
    build, entry = HAND_WRITTEN[case]
    pb = ProgramBuilder(entry=entry)
    build(pb)
    assert isinstance(assert_same(pb.build(), regs), bytes)


def test_raw_negative_movi():
    # The builder stores MOVI immediates unsigned; a hand-made
    # instruction may not, and both models mask it when it fires.
    movi = Instruction(Opcode.MOVI, imm=-5,
                       targets=[Target(TargetKind.WRITE, 0),
                                Target(TargetKind.INST, 1, Slot.OP0)])
    shift = Instruction(Opcode.SHR, imm=60,
                        targets=[Target(TargetKind.WRITE, 1)])
    bro = Instruction(Opcode.BRO, branch_target="@halt")
    block = Block("m", writes=[WriteSlot(1), WriteSlot(2)],
                  instructions=[movi, shift, bro])
    _, state = pickle.loads(assert_same(Program(entry="m", blocks=[block])))
    assert (state.get_reg(1), state.get_reg(2)) == (2 ** 64 - 5, 15)


def test_youngest_writer_wins():
    pb = ProgramBuilder(entry="a")
    _partial_overwrites(pb)
    program = pb.build()
    trace, _ = interp.run_program(program)
    load = trace.records[2].loads[0]
    assert load.src_store == (1, 0) and load.multi_writer
    whole = trace.records[2].loads[1]
    assert whole.src_store == (0, 0) and not whole.multi_writer


# ----------------------------------------------------------------------
# Malformed programs fail the same way
# ----------------------------------------------------------------------

def _spin():
    pb = ProgramBuilder(entry="spin")
    b = pb.block("spin")
    b.write(1, b.movi(1))
    b.branch("spin")
    return pb.build()


def _lsid_against_dataflow():
    movi = Instruction(Opcode.MOVI, imm=0x100,
                       targets=[Target(TargetKind.INST, 1, Slot.OP0),
                                Target(TargetKind.INST, 2, Slot.OP0)])
    load = Instruction(Opcode.LOAD, lsid=1,
                       targets=[Target(TargetKind.INST, 2, Slot.OP1),
                                Target(TargetKind.WRITE, 0)])
    store = Instruction(Opcode.STORE, lsid=0)
    bro = Instruction(Opcode.BRO, branch_target="@halt")
    block = Block("m", writes=[WriteSlot(1)],
                  instructions=[movi, load, store, bro])
    return Program(entry="m", blocks=[block])


def _all_null_write():
    def body(b):
        b.write(1, b.mov(b.movi(5), pred=b.movi(0)))
    return build_single_block(body)


def _branches(value, *senses):
    """One branch per predicate sense, all predicated on ``value``."""
    pb = ProgramBuilder(entry="m")
    b = pb.block("m")
    p = b.movi(value)
    b.write(1, b.movi(1))
    for sense in senses:
        b.branch("@halt", pred=(p, sense))
    return pb.build()


def _two_values_into_a_write():
    def body(b):
        b.write(1, b.movi(1))
        b.write(1, b.movi(2))
    return build_single_block(body)


def _two_values_into_an_operand():
    def body(b):
        both = Wire(b, b.movi(1).producers + b.movi(2).producers)
        b.write(1, b.add(both, imm=1))
    return build_single_block(body)


def _register_written_twice():
    def body(b):
        b.write(1, b.movi(1))
        b.write(2, b.movi(2))
    program = build_single_block(body)
    # Validation rejects two write slots naming one register, so the
    # second is renamed after validation (and before any run).
    program.block("main").writes[1].reg = 1
    return program


MALFORMED = {
    "max_blocks": (_spin, {"max_blocks": 10}, "exceeded max_blocks=10"),
    "lsid_against_dataflow": (_lsid_against_dataflow, {},
                              "memory op lsid=0 never performed"),
    "all_null_write": (_all_null_write, {},
                       "write slot W0 (R1) resolved all-null"),
    "no_branch": (lambda: _branches(0, True), {}, "no branch fired"),
    "two_branches": (lambda: _branches(1, True, True), {},
                     "two branches fired ('@halt' and '@halt')"),
    "two_values_into_a_write": (
        _two_values_into_a_write, {},
        "two non-null producers reached ('write', 0, None)"),
    "two_values_into_an_operand": (
        _two_values_into_an_operand, {},
        "two non-null producers reached ('inst', 2, <Slot.OP0: 0>)"),
    "register_written_twice": (_register_written_twice, {},
                               "register R1 written twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_programs_fail_alike(case):
    build, kwargs, message = MALFORMED[case]
    error_type, text = assert_same(build(), **kwargs)
    assert error_type is ExecutionError
    assert message in text


# ----------------------------------------------------------------------
# The plan cache follows the block
# ----------------------------------------------------------------------

def test_plan_is_compiled_once_per_block(counter_program):
    block = counter_program.block("loop")
    assert block._golden_plan is None
    interp.run_program(counter_program)
    plan = block._golden_plan
    assert isinstance(plan, interp.GoldenPlan)
    interp.run_program(counter_program)
    assert block._golden_plan is plan


def test_block_mutated_after_a_run_recompiles():
    pb = ProgramBuilder(entry="main")
    b = pb.block("main")
    value = b.movi(7)
    b.write(1, value)
    b.write(2, b.add(value, imm=1))
    b.branch("@halt")
    program = pb.build()
    block = program.block("main")
    _, state = interp.run_program(program)
    assert (state.get_reg(1), state.get_reg(2)) == (7, 8)
    stale = block._golden_plan

    # Rewire the block (I1 becomes I0 + I0) and run the builder's
    # fan-out pass: three targets over a two-target limit insert a MOV
    # and invalidate the block's caches, the golden plan among them.
    block.instructions[0].imm = 40
    block.instructions[0].targets.append(Target(TargetKind.INST, 1,
                                                Slot.OP1))
    block.instructions[1].imm = None
    _expand_fanout(block, 2)
    assert block._golden_plan is None
    program.validate()
    assert len(block.instructions) > 3

    result = assert_same(program)
    _, state = pickle.loads(result)
    assert (state.get_reg(1), state.get_reg(2)) == (40, 80)
    assert block._golden_plan is not stale
