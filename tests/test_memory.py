"""Unit tests for sparse memory and architectural state."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.memory import (ADDRESS_MASK, PAGE_SHIFT, PAGE_SIZE,
                               SparseMemory)
from repro.arch.state import ArchState
from repro.harness.parallel import arch_state_digest
from repro.isa.program import DataSegment
from repro.isa.values import WORD_MASK


def reference_nonzero_words(mem):
    """The per-word loop ``nonzero_words`` replaced: the reference."""
    result = []
    for page_no in sorted(mem._pages):
        base = page_no << PAGE_SHIFT
        page = mem._pages[page_no]
        for off in range(0, PAGE_SIZE, 8):
            word = int.from_bytes(page[off:off + 8], "little")
            if word:
                result.append((base + off, word))
    return result


def reference_digest(state):
    """The per-word ``update`` digest ``arch_state_digest`` replaced."""
    h = hashlib.sha256()
    h.update(",".join(map(str, state.regs)).encode())
    for addr, word in reference_nonzero_words(state.memory):
        h.update(f";{addr}:{word}".encode())
    return h.hexdigest()


#: Write addresses: anywhere low, straddling a page boundary (unaligned
#: multi-byte writes split across two pages), and around the 2**48 wrap.
addresses = st.one_of(
    st.integers(min_value=0, max_value=1 << 20),
    st.builds(lambda page, delta: (page << PAGE_SHIFT) + delta,
              st.integers(min_value=1, max_value=64),
              st.integers(min_value=-9, max_value=9)),
    st.integers(min_value=ADDRESS_MASK - 40, max_value=ADDRESS_MASK + 40),
)
#: Write data, including all-zero runs that allocate all-zero pages.
payloads = st.one_of(st.binary(min_size=1, max_size=24),
                     st.integers(min_value=1, max_value=24).map(bytes))
writes = st.lists(st.tuples(addresses, payloads), max_size=12)


def memory_of(*write_lists):
    mem = SparseMemory()
    for write_list in write_lists:
        for addr, data in write_list:
            mem.write_bytes(addr, data)
    return mem


class TestSparseMemory:
    def test_uninitialised_reads_zero(self):
        mem = SparseMemory()
        assert mem.read_word(0x1234) == 0
        assert mem.read_bytes(10**9, 4) == b"\x00" * 4

    def test_write_read_roundtrip(self):
        mem = SparseMemory()
        mem.write_word(0x100, 0xDEADBEEFCAFEBABE)
        assert mem.read_word(0x100) == 0xDEADBEEFCAFEBABE

    def test_little_endian(self):
        mem = SparseMemory()
        mem.write_int(0x100, 0x0102030405060708, 8)
        assert mem.read_bytes(0x100, 1) == b"\x08"
        assert mem.read_int(0x100, 2) == 0x0708

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_widths(self, width):
        mem = SparseMemory()
        value = (1 << (8 * width)) - 3
        mem.write_int(0x20, value, width)
        assert mem.read_int(0x20, width) == value

    def test_narrow_write_truncates(self):
        mem = SparseMemory()
        mem.write_int(0x20, 0x1FF, 1)
        assert mem.read_int(0x20, 1) == 0xFF
        assert mem.read_int(0x21, 1) == 0

    def test_cross_page_access(self):
        mem = SparseMemory()
        addr = PAGE_SIZE - 3
        mem.write_int(addr, 0x0102030405060708, 8)
        assert mem.read_int(addr, 8) == 0x0102030405060708

    def test_segments_initialise(self):
        seg = DataSegment.from_words("d", 0x1000, [7, 8])
        mem = SparseMemory([seg])
        assert mem.read_word(0x1000) == 7
        assert mem.read_word(0x1008) == 8

    def test_copy_is_independent(self):
        mem = SparseMemory()
        mem.write_word(0, 1)
        clone = mem.copy()
        clone.write_word(0, 2)
        assert mem.read_word(0) == 1
        assert clone.read_word(0) == 2

    def test_same_contents_ignores_zero_pages(self):
        a = SparseMemory()
        b = SparseMemory()
        a.write_word(0x5000, 0)         # allocates a zero page
        assert a.same_contents(b)
        a.write_word(0x5000, 9)
        assert not a.same_contents(b)

    def test_nonzero_words(self):
        mem = SparseMemory()
        mem.write_word(0x10, 5)
        mem.write_word(0x40, 6)
        assert mem.nonzero_words() == [(0x10, 5), (0x40, 6)]

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=1 << 20),
        st.binary(min_size=1, max_size=32)), max_size=20))
    def test_last_write_wins(self, writes):
        mem = SparseMemory()
        shadow = {}
        for addr, data in writes:
            mem.write_bytes(addr, data)
            for i, byte in enumerate(data):
                shadow[addr + i] = byte
        for addr, byte in shadow.items():
            assert mem.read_bytes(addr, 1)[0] == byte


class TestFastPathsMatchReference:
    """``nonzero_words``, ``same_contents`` and ``arch_state_digest``
    decode pages in C; each must agree with the per-word reference."""

    @given(writes)
    def test_nonzero_words(self, write_list):
        mem = memory_of(write_list)
        assert mem.nonzero_words() == reference_nonzero_words(mem)

    @given(writes, writes, writes)
    def test_same_contents(self, common, only_a, only_b):
        a = memory_of(common, only_a)
        b = memory_of(common, only_b)
        want = reference_nonzero_words(a) == reference_nonzero_words(b)
        assert a.same_contents(b) == want
        assert b.same_contents(a) == want

    @given(writes, st.lists(st.integers(min_value=0, max_value=WORD_MASK),
                            max_size=4))
    def test_arch_state_digest(self, write_list, regs):
        state = ArchState(initial_regs=dict(enumerate(regs)))
        state.memory = memory_of(write_list)
        assert arch_state_digest(state) == reference_digest(state)

    def test_zero_page_and_wrap_examples(self):
        a = memory_of([(3 * PAGE_SIZE, bytes(16)),
                       (ADDRESS_MASK - 3, b"\x01\x02\x03\x04\x05\x06")])
        b = memory_of([(ADDRESS_MASK - 3, b"\x01\x02\x03\x04"),
                       (0, b"\x05\x06")])
        assert 3 in a.touched_pages() and 3 not in b.touched_pages()
        assert a.nonzero_words() == reference_nonzero_words(a) == [
            (0, 0x0605), (ADDRESS_MASK - 7, 0x0403020100000000)]
        assert a.same_contents(b) and b.same_contents(a)
        b.write_bytes(3 * PAGE_SIZE + 5, b"\x01")
        assert not a.same_contents(b) and not b.same_contents(a)


class TestArchState:
    def test_initial_regs(self):
        state = ArchState(initial_regs={3: -1})
        assert state.get_reg(3) == (1 << 64) - 1
        assert state.get_reg(0) == 0

    def test_set_reg_wraps(self):
        state = ArchState()
        state.set_reg(1, 1 << 64)
        assert state.get_reg(1) == 0

    def test_copy(self):
        state = ArchState(initial_regs={1: 7})
        state.memory.write_word(0, 9)
        clone = state.copy()
        clone.set_reg(1, 8)
        clone.memory.write_word(0, 10)
        assert state.get_reg(1) == 7
        assert state.memory.read_word(0) == 9

    def test_equality(self):
        a = ArchState(initial_regs={1: 7})
        b = ArchState(initial_regs={1: 7})
        assert a == b
        b.memory.write_word(0x10, 1)
        assert a != b
