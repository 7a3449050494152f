"""Unit tests for the timing-only cache hierarchy."""

import pytest

from repro.uarch.cache import BlockCache, Cache, build_hierarchy
from repro.uarch.config import default_config


def small_cache(next_level=None, miss_latency=50):
    # 4 sets x 2 ways x 16B lines = 128B
    return Cache("t", size=128, assoc=2, line=16, hit_latency=1,
                 next_level=next_level, miss_latency=miss_latency)


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x100) == 51      # 1 + 50
        assert cache.access(0x100) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_same_line_hits(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x10F) == 1       # same 16B line
        assert cache.access(0x110) == 51      # next line

    def test_lru_eviction(self):
        cache = small_cache()
        # Three lines mapping to the same set (stride = sets*line = 64).
        a, b, c = 0x000, 0x040, 0x080
        cache.access(a)
        cache.access(b)
        cache.access(c)           # evicts a (LRU)
        assert cache.access(b) == 1
        assert cache.access(a) == 51

    def test_lru_updated_on_hit(self):
        cache = small_cache()
        a, b, c = 0x000, 0x040, 0x080
        cache.access(a)
        cache.access(b)
        cache.access(a)           # a becomes MRU
        cache.access(c)           # evicts b
        assert cache.access(a) == 1
        assert cache.access(b) == 51

    def test_two_levels(self):
        l2 = small_cache(miss_latency=100)
        l1 = Cache("l1", 64, 2, 16, 1, next_level=l2)
        assert l1.access(0x0) == 1 + 1 + 100   # l1 miss + l2 miss + dram
        assert l1.access(0x0) == 1             # l1 hit
        l1.flush()
        assert l1.access(0x0) == 1 + 1         # l1 miss, l2 hit

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            Cache("bad", size=100, assoc=2, line=16, hit_latency=1)

    def test_hit_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_build_hierarchy_from_config(self):
        config = default_config()
        l1 = build_hierarchy(config)
        assert l1.name == "L1D"
        assert l1.next_level.name == "L2"
        cold = l1.access(0)
        assert cold == (config.l1_hit_latency + config.l2_hit_latency
                        + config.dram_latency)


class TestBlockCache:
    def test_miss_then_hit(self):
        icache = BlockCache(entries=2, miss_penalty=10)
        assert icache.access("a") == 10
        assert icache.access("a") == 0

    def test_lru_by_name(self):
        icache = BlockCache(entries=2, miss_penalty=10)
        icache.access("a")
        icache.access("b")
        icache.access("c")        # evicts a
        assert icache.access("b") == 0
        assert icache.access("a") == 10
