"""Sliced set-associative coherence directory.

Models the device coherence directory on the CXL memory node (2048 sets
x 16 ways x 16 slices in Table 2).  Entries track the MESI-style state
plus the sharer set; capacity evictions surface the victim so the owner
can back-invalidate the corresponding cache lines (a real constraint the
paper leans on: PIPM-migrated lines stop consuming device directory
entries).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set


class DirectoryEntry:
    """Directory state for one tracked cache line."""

    __slots__ = ("line", "state", "sharers", "owner")

    def __init__(self, line: int, state: object, owner: int = -1):
        self.line = line
        self.state = state
        self.sharers: Set[int] = set()
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryEntry(line={self.line:#x}, state={self.state}, "
            f"owner={self.owner}, sharers={sorted(self.sharers)})"
        )


class SlicedDirectory:
    """A directory sharded into address-hashed slices of set-assoc arrays."""

    def __init__(self, sets_per_slice: int, ways: int, slices: int = 1,
                 name: str = "directory") -> None:
        if sets_per_slice < 1 or ways < 1 or slices < 1:
            raise ValueError(f"{name}: geometry must be positive")
        if sets_per_slice & (sets_per_slice - 1):
            raise ValueError(f"{name}: sets_per_slice must be a power of two")
        self.sets_per_slice = sets_per_slice
        self.ways = ways
        self.slices = slices
        self.name = name
        self._mask = sets_per_slice - 1
        # Each set dict doubles as the recency order (move-to-end on every
        # lookup hit and allocate), so the LRU victim is always the first
        # key — O(1) instead of a min-by-stamp scan over the ways.  The
        # move-to-end order is exactly the order increasing stamps would
        # recover, so victim selection is unchanged.
        self._arrays: List[List[Dict[int, DirectoryEntry]]] = [
            [dict() for _ in range(sets_per_slice)] for _ in range(slices)
        ]
        self.lookups = 0
        self.hits = 0
        self.capacity_evictions = 0

    def _set_for(self, line: int) -> Dict[int, DirectoryEntry]:
        slice_idx = (line // self.sets_per_slice) % self.slices
        return self._arrays[slice_idx][line & self._mask]

    # -- operations -----------------------------------------------------
    def lookup(self, line: int) -> Optional[DirectoryEntry]:
        self.lookups += 1
        dir_set = self._set_for(line)
        entry = dir_set.get(line)
        if entry is not None:
            self.hits += 1
            del dir_set[line]
            dir_set[line] = entry
        return entry

    def peek(self, line: int) -> Optional[DirectoryEntry]:
        return self._set_for(line).get(line)

    def allocate(self, line: int, state: object, owner: int = -1
                 ) -> "tuple[DirectoryEntry, Optional[DirectoryEntry]]":
        """Allocate (or update) an entry; returns ``(entry, victim)``.

        ``victim`` is a capacity-evicted entry the caller must
        back-invalidate from the owning caches, or ``None``.
        """
        dir_set = self._set_for(line)
        entry = dir_set.get(line)
        if entry is not None:
            entry.state = state
            if owner >= 0:
                entry.owner = owner
            del dir_set[line]
            dir_set[line] = entry
            return entry, None
        victim = None
        if len(dir_set) >= self.ways:
            victim = dir_set.pop(next(iter(dir_set)))
            self.capacity_evictions += 1
        entry = DirectoryEntry(line, state, owner)
        dir_set[line] = entry
        return entry, victim

    def remove(self, line: int) -> Optional[DirectoryEntry]:
        return self._set_for(line).pop(line, None)

    # -- introspection ----------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(
            len(dir_set) for array in self._arrays for dir_set in array
        )

    @property
    def capacity(self) -> int:
        return self.sets_per_slice * self.ways * self.slices

    def entries(self):
        for array in self._arrays:
            for dir_set in array:
                yield from dir_set.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlicedDirectory({self.name}, {self.slices}x{self.sets_per_slice}"
            f"x{self.ways}, occupancy={self.occupancy})"
        )
