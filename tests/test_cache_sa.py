"""Set-associative cache and replacement policies."""

import pytest

from repro.cache.replacement import LruPolicy
from repro.cache.sa_cache import SetAssocCache, cache_from_geometry


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = SetAssocCache(4, 2)
        assert cache.lookup(5) is None
        cache.fill(5)
        assert cache.lookup(5) is not None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_fill_existing_updates_in_place(self):
        cache = SetAssocCache(4, 2)
        cache.fill(5)
        victim = cache.fill(5, dirty=True)
        assert victim is None
        assert cache.peek(5).dirty

    def test_dirty_sticky_on_refill(self):
        cache = SetAssocCache(4, 2)
        cache.fill(5, dirty=True)
        cache.fill(5, dirty=False)
        assert cache.peek(5).dirty

    def test_eviction_within_set(self):
        cache = SetAssocCache(4, 2)
        # lines 0, 4, 8 map to set 0
        cache.fill(0)
        cache.fill(4)
        victim = cache.fill(8)
        assert victim is not None
        assert victim.line == 0  # LRU
        assert cache.occupancy == 2

    def test_lru_respects_recency(self):
        cache = SetAssocCache(4, 2)
        cache.fill(0)
        cache.fill(4)
        cache.lookup(0)  # touch 0, making 4 the LRU
        victim = cache.fill(8)
        assert victim.line == 4

    def test_invalidate(self):
        cache = SetAssocCache(4, 2)
        cache.fill(3, dirty=True)
        entry = cache.invalidate(3)
        assert entry.dirty
        assert cache.peek(3) is None
        assert cache.invalidate(3) is None

    def test_peek_does_not_count_stats(self):
        cache = SetAssocCache(4, 2)
        cache.peek(9)
        assert cache.misses == 0

    def test_state_field(self):
        cache = SetAssocCache(4, 2)
        cache.fill(1, state="S")
        assert cache.peek(1).state == "S"
        cache.fill(1, state="M")
        assert cache.peek(1).state == "M"


class TestBulkOperations:
    def test_flush(self):
        cache = SetAssocCache(4, 2)
        for line in range(6):
            cache.fill(line)
        drained = cache.flush()
        assert len(drained) == 6
        assert cache.occupancy == 0

    def test_invalidate_where(self):
        cache = SetAssocCache(4, 2)
        for line in range(8):
            cache.fill(line, dirty=(line % 2 == 0))
        removed = cache.invalidate_where(lambda e: e.dirty)
        assert len(removed) == 4
        assert all(not e.dirty for e in cache.entries())

    def test_hit_rate(self):
        cache = SetAssocCache(4, 2)
        cache.fill(0)
        cache.lookup(0)
        cache.lookup(1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_reset_stats(self):
        cache = SetAssocCache(4, 2)
        cache.lookup(0)
        cache.reset_stats()
        assert cache.misses == 0


class TestGeometry:
    def test_from_geometry(self):
        cache = cache_from_geometry(32 * 1024, 8)
        assert cache.capacity == 32 * 1024 // 64

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssocCache(3, 2)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            SetAssocCache(4, 0)

    def test_geometry_rounds_down_to_pow2(self):
        cache = cache_from_geometry(3 * 64 * 8, 8)  # 3 sets -> 2
        assert cache.num_sets == 2

    def test_non_pow2_sets_preserve_capacity(self):
        # 24 KB / 4-way / 64 B lines = 384 lines = 96 sets.  The old
        # code rounded 96 sets down to 64 but kept 4 ways, silently
        # shrinking the cache to 16 KB; the lost sets must fold back in
        # as extra ways instead.
        cache = cache_from_geometry(24 * 1024, 4)
        assert cache.capacity == 384
        assert cache.num_sets == 64
        assert cache.ways == 6

    def test_capacity_loss_bounded_by_one_set(self):
        # 100 lines / 3 ways = 33 sets -> 32 sets; 100 // 32 = 3 ways.
        # Up to one set's worth of lines may be lost to the division,
        # never the ~2x the pure rounddown cost.
        cache = cache_from_geometry(100 * 64, 3)
        assert cache.num_sets == 32
        assert cache.capacity == 96
        assert cache.capacity >= 100 - cache.num_sets


class TestReplacementPolicies:
    def _exercise(self, policy):
        cache = SetAssocCache(1, 4, policy=policy)
        for line in range(4):
            cache.fill(line)
        victim = cache.fill(99)
        assert victim is not None
        assert cache.occupancy == 4

    def test_lru(self):
        self._exercise(LruPolicy())
