"""Sparse byte-addressable memory.

Backed by 4 KiB pages allocated on demand.  Uninitialised memory reads as
zero.  Both the golden model and the timing simulator use this class, each
with its own instance initialised from the program's data segments.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Tuple

from ..isa.program import DataSegment
from ..isa.values import WORD_MASK

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: Addresses wrap at 2**48 — a sanity bound that catches wild pointers
#: produced by buggy kernels long before memory fills up.
ADDRESS_BITS = 48
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

#: One page as its aligned little-endian words, decoded in one C call.
_PAGE_WORDS = struct.Struct(f"<{PAGE_SIZE // 8}Q")
_WORD_OFFSETS = range(0, PAGE_SIZE, 8)
_ZERO_PAGE = bytes(PAGE_SIZE)


class SparseMemory:
    """Byte-addressable sparse memory with little-endian word access."""

    def __init__(self, segments: Iterable[DataSegment] = ()):
        self._pages: Dict[int, bytearray] = {}
        for seg in segments:
            self.write_bytes(seg.base, seg.data)

    # ------------------------------------------------------------------

    def _page_for(self, addr: int) -> bytearray:
        page_no = addr >> PAGE_SHIFT
        page = self._pages.get(page_no)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_no] = page
        return page

    def read_bytes(self, addr: int, length: int) -> bytes:
        addr &= ADDRESS_MASK
        out = bytearray()
        while length > 0:
            offset = addr & PAGE_MASK
            chunk = min(length, PAGE_SIZE - offset)
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset:offset + chunk])
            addr = (addr + chunk) & ADDRESS_MASK
            length -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        addr &= ADDRESS_MASK
        pos = 0
        while pos < len(data):
            offset = addr & PAGE_MASK
            chunk = min(len(data) - pos, PAGE_SIZE - offset)
            page = self._page_for(addr)
            page[offset:offset + chunk] = data[pos:pos + chunk]
            addr = (addr + chunk) & ADDRESS_MASK
            pos += chunk

    # ------------------------------------------------------------------

    def read_int(self, addr: int, width: int) -> int:
        """Read a ``width``-byte little-endian unsigned integer."""
        return int.from_bytes(self.read_bytes(addr, width), "little")

    def write_int(self, addr: int, value: int, width: int) -> None:
        """Write the low ``width`` bytes of ``value`` little-endian."""
        value &= (1 << (8 * width)) - 1
        self.write_bytes(addr, value.to_bytes(width, "little"))

    def read_word(self, addr: int) -> int:
        return self.read_int(addr, 8)

    def write_word(self, addr: int, value: int) -> None:
        self.write_int(addr, value & WORD_MASK, 8)

    # ------------------------------------------------------------------

    def copy(self) -> "SparseMemory":
        clone = SparseMemory()
        clone._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return clone

    def touched_pages(self) -> List[int]:
        """Page numbers that have been allocated (for state comparison)."""
        return sorted(self._pages)

    def nonzero_words(self) -> List[Tuple[int, int]]:
        """All (address, value) pairs of non-zero aligned words, in
        address order.

        This is the memory half of every cell's architectural digest
        (:func:`repro.harness.parallel.arch_state_digest`) and of the
        differential check's mismatch report.  Every byte lies in
        exactly one aligned word, so two memories hold the same bytes
        exactly when these lists are equal.
        """
        result = []
        unpack = _PAGE_WORDS.unpack
        for page_no in sorted(self._pages):
            base = page_no << PAGE_SHIFT
            result.extend([(base + off, word) for off, word
                           in zip(_WORD_OFFSETS, unpack(self._pages[page_no]))
                           if word])
        return result

    def same_contents(self, other: "SparseMemory") -> bool:
        """Deep content equality (zero pages are equivalent to absent ones)."""
        mine, theirs = self._pages, other._pages
        for page_no, page in mine.items():
            if page != theirs.get(page_no, _ZERO_PAGE):
                return False
        for page_no, page in theirs.items():
            if page_no not in mine and page != _ZERO_PAGE:
                return False
        return True
