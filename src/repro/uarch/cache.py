"""Timing-only cache hierarchy.

Caches model *latency*, not contents: architectural data lives in the
committed :class:`~repro.arch.memory.SparseMemory`, and speculative values
are assembled by the LSQ.  An access walks the hierarchy, updates LRU/tag
state, and returns the number of cycles the access took.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative, LRU, write-allocate timing cache."""

    def __init__(self, name: str, size: int, assoc: int, line: int,
                 hit_latency: int, next_level: Optional["Cache"] = None,
                 miss_latency: int = 0):
        if size % (assoc * line) != 0:
            raise ValueError(f"{name}: size not divisible by assoc*line")
        self.name = name
        self.line = line
        self.assoc = assoc
        self.n_sets = size // (assoc * line)
        self.hit_latency = hit_latency
        self.next_level = next_level
        #: Latency charged beyond this level when there is no next level
        #: (i.e. DRAM time).
        self.miss_latency = miss_latency
        self.stats = CacheStats()
        #: Set index -> LRU-ordered resident lines.  Allocated lazily on
        #: first touch: a short run references a handful of sets, so
        #: building every set eagerly (hundreds for an L2) is pure
        #: constructor overhead on cold sweeps.
        self._sets: Dict[int, OrderedDict] = {}

    def _locate(self, addr: int):
        line_addr = addr // self.line
        index = line_addr % self.n_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set, line_addr

    def access(self, addr: int, is_write: bool = False) -> int:
        """Access one address; returns total latency in cycles."""
        cache_set, line_addr = self._locate(addr)
        self.stats.accesses += 1
        if line_addr in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(line_addr)
            return self.hit_latency
        self.stats.misses += 1
        if self.next_level is not None:
            below = self.next_level.access(addr, is_write)
        else:
            below = self.miss_latency
        cache_set[line_addr] = True
        if len(cache_set) > self.assoc:
            cache_set.popitem(last=False)
        return self.hit_latency + below

    def flush(self) -> None:
        self._sets.clear()
        self.stats = CacheStats()


class BlockCache:
    """Fully-associative LRU cache of block *names* (the I-cache proxy).

    EDGE blocks are large, so instruction supply is modelled per block: a
    hit costs nothing extra, a miss adds a fixed penalty to the fetch.
    """

    def __init__(self, entries: int, miss_penalty: int):
        self.entries = entries
        self.miss_penalty = miss_penalty
        self.stats = CacheStats()
        self._lru: OrderedDict = OrderedDict()

    def access(self, block_name: str) -> int:
        """Returns the extra fetch penalty (0 on hit)."""
        self.stats.accesses += 1
        if block_name in self._lru:
            self.stats.hits += 1
            self._lru.move_to_end(block_name)
            return 0
        self.stats.misses += 1
        self._lru[block_name] = True
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return self.miss_penalty


def build_hierarchy(config) -> Cache:
    """Construct L1 -> L2 -> DRAM from a :class:`MachineConfig`."""
    l2 = Cache("L2", config.l2_size, config.l2_assoc, config.l1_line,
               config.l2_hit_latency, next_level=None,
               miss_latency=config.dram_latency)
    l1 = Cache("L1D", config.l1_size, config.l1_assoc, config.l1_line,
               config.l1_hit_latency, next_level=l2)
    return l1
