"""Sliced coherence directory."""

import pytest

from repro.cache.directory import SlicedDirectory


class TestDirectory:
    def test_allocate_and_lookup(self):
        d = SlicedDirectory(4, 2, 2)
        entry, victim = d.allocate(7, state="S", owner=1)
        assert victim is None
        assert d.lookup(7) is entry
        assert entry.owner == 1

    def test_lookup_miss(self):
        d = SlicedDirectory(4, 2)
        assert d.lookup(9) is None
        assert d.hits == 0
        assert d.lookups == 1

    def test_allocate_existing_updates(self):
        d = SlicedDirectory(4, 2)
        d.allocate(7, state="S")
        entry, victim = d.allocate(7, state="M", owner=2)
        assert victim is None
        assert entry.state == "M"
        assert entry.owner == 2

    def test_capacity_eviction_surfaces_victim(self):
        d = SlicedDirectory(4, 2, 1)
        # Lines mapping to the same set of the same slice: step by sets.
        lines = [0, 4, 8]
        d.allocate(lines[0], "S")
        d.allocate(lines[1], "S")
        _, victim = d.allocate(lines[2], "S")
        assert victim is not None
        assert victim.line == lines[0]
        assert d.capacity_evictions == 1

    def test_sharers_tracked_per_entry(self):
        d = SlicedDirectory(4, 2)
        entry, _ = d.allocate(3, "S")
        entry.sharers.update({0, 2})
        assert d.peek(3).sharers == {0, 2}

    def test_remove(self):
        d = SlicedDirectory(4, 2)
        d.allocate(3, "S")
        assert d.remove(3) is not None
        assert d.remove(3) is None
        assert d.occupancy == 0

    def test_slicing_spreads_lines(self):
        d = SlicedDirectory(4, 1, 4)
        # 16 distinct lines fit without eviction thanks to slicing.
        for line in range(16):
            _, victim = d.allocate(line, "S")
            assert victim is None
        assert d.occupancy == 16

    def test_capacity_property(self):
        assert SlicedDirectory(8, 2, 4).capacity == 64

    def test_entries_iterates_all(self):
        d = SlicedDirectory(4, 2, 2)
        for line in range(5):
            d.allocate(line, "S")
        assert len(list(d.entries())) == 5

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SlicedDirectory(3, 2)
        with pytest.raises(ValueError):
            SlicedDirectory(4, 0)
