"""Set-associative LRU cache model."""

import pytest

from repro.gpu.cache import CacheStats, SetAssociativeCache, cache_geometry
from repro.gpu.config import TITAN_V


def cache(capacity=1024, assoc=2, line=128):
    return SetAssociativeCache(capacity, assoc, line)


class TestGeometry:
    def test_sets_and_capacity(self):
        c = cache(capacity=1024, assoc=2, line=128)
        assert c.num_sets == 4
        assert c.capacity_bytes == 1024

    def test_non_pow2_sets_rounded_down(self):
        c = SetAssociativeCache(24 * 128 * 3, assoc=24, line_bytes=128)
        assert c.num_sets & (c.num_sets - 1) == 0

    def test_line_of(self):
        c = cache(line=128)
        assert c.line_of(0) == 0
        assert c.line_of(127) == 0
        assert c.line_of(128) == 1

    def test_table_iii_geometry(self):
        """The fast path's fold reads this rule without building a cache:
        a 128 KB 4-way L1 has 256 sets, and a 4.5 MB 24-way L2's 1536
        sets round down to 1024."""
        l1 = (TITAN_V.l1_bytes, TITAN_V.l1_assoc, TITAN_V.l1_line_bytes)
        l2 = (TITAN_V.l2_bytes, TITAN_V.l2_assoc, TITAN_V.l2_line_bytes)
        assert cache_geometry(*l1) == (7, 255)
        assert cache_geometry(*l2) == (7, 1023)
        assert SetAssociativeCache(*l2).num_sets == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)
        with pytest.raises(ValueError, match="power of two"):
            SetAssociativeCache(1024, 2, line_bytes=100)


class TestAccessSemantics:
    def test_cold_miss_then_hit(self):
        c = cache()
        assert not c.access(5)
        assert c.access(5)

    def test_lru_within_set(self):
        c = cache(capacity=512, assoc=2, line=128)  # 2 sets
        # Lines 0, 2, 4 map to set 0.
        c.access(0)
        c.access(2)
        c.access(0)  # refresh 0; 2 is now LRU
        c.access(4)  # evicts 2
        assert c.access(0)
        assert not c.access(2)

    def test_sets_are_independent(self):
        c = cache(capacity=512, assoc=2, line=128)
        c.access(0)
        c.access(1)  # other set
        c.access(2)
        assert c.access(0) and c.access(1) and c.access(2)

    def test_contains_does_not_update(self):
        c = cache(capacity=512, assoc=2)
        c.access(0)
        c.access(2)
        assert c.contains(0)
        c.access(4)  # 0 is LRU -> evicted despite contains() probe
        assert not c.contains(0)

    def test_flush(self):
        c = cache()
        c.access(1)
        c.flush()
        assert not c.contains(1)
        assert c.stats.accesses == 0


class TestStats:
    def test_counters(self):
        c = cache()
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(1 / 3)

    def test_empty_hit_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_streaming_working_set_larger_than_cache(self):
        c = cache(capacity=1024, assoc=4, line=128)  # 8 lines
        for _ in range(3):
            for line in range(32):
                c.access(line)
        # Pure streaming through a too-small cache: no reuse survives.
        assert c.stats.hits == 0

    def test_working_set_that_fits_is_all_hits_after_warmup(self):
        c = cache(capacity=1024, assoc=4, line=128)
        for line in range(8):
            c.access(line)
        for line in range(8):
            assert c.access(line)
