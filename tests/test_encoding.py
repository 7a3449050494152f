"""Round-trip tests for the binary program encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import run_program
from repro.errors import EncodingError
from repro.isa.encoding import decode, encode
from repro.workloads import KERNELS
from repro.workloads.randprog import generate


def roundtrip(program):
    blob = encode(program)
    clone = decode(blob)
    assert str(clone) == str(program)
    return blob, clone


class TestRoundTrip:
    def test_counter_program(self, counter_program):
        roundtrip(counter_program)

    def test_store_load_program(self, store_load_program):
        blob, clone = roundtrip(store_load_program)
        _, original_state = run_program(store_load_program)
        _, cloned_state = run_program(clone)
        assert original_state == cloned_state

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel(self, name):
        inst = KERNELS[name].build_test()
        roundtrip(inst.program)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed):
        roundtrip(generate(seed).program)

    def test_segments_preserved(self, counter_program):
        from repro.isa.program import DataSegment
        counter_program.add_segment(
            DataSegment("blob", 0x9000, bytes(range(256))))
        blob, clone = roundtrip(counter_program)
        seg = clone.segments[-1]
        assert seg.base == 0x9000
        assert seg.data == bytes(range(256))

    def test_negative_immediates(self):
        from repro.isa import ProgramBuilder
        pb = ProgramBuilder(entry="m")
        b = pb.block("m")
        b.write(1, b.load(b.movi(0x1000), offset=-24, width=4))
        b.branch("@halt")
        _, clone = roundtrip(pb.build())
        load = next(i for i in clone.block("m").instructions if i.is_load)
        assert load.imm == -24
        assert load.width == 4


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(EncodingError, match="magic"):
            decode(b"NOPE" + bytes(10))

    def test_bad_version(self, counter_program):
        blob = bytearray(encode(counter_program))
        blob[4] = 99
        with pytest.raises(EncodingError, match="version"):
            decode(bytes(blob))

    def test_truncated(self, counter_program):
        blob = encode(counter_program)
        with pytest.raises(EncodingError):
            decode(blob[: len(blob) // 2])

    def test_empty(self):
        with pytest.raises(EncodingError):
            decode(b"")


class TestVarints:
    @given(st.integers(min_value=0, max_value=1 << 70))
    @settings(max_examples=200)
    def test_varint_roundtrip(self, value):
        import io
        from repro.isa.encoding import _read_varint, _write_varint
        out = bytearray()
        _write_varint(out, value)
        assert _read_varint(io.BytesIO(out)) == value

    @given(st.integers(min_value=-(1 << 69), max_value=1 << 69))
    @settings(max_examples=200)
    def test_svarint_roundtrip(self, value):
        import io
        from repro.isa.encoding import _read_svarint, _write_svarint
        out = bytearray()
        _write_svarint(out, value)
        assert _read_svarint(io.BytesIO(out)) == value
