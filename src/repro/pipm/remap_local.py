"""Per-host local remapping table (Sections 4.2 and 4.4).

Tracks only the pages partially migrated to *this* host.  Each entry packs
a 28-bit local PFN (indexing up to 1 TB of local DRAM) and a 4-bit local
access counter — 4 bytes.  The table is organized as a two-level radix
table: a fixed root (32 MB in the paper, indexing up to 4M leaf pages) and
on-demand leaf pages of 1K entries, so its DRAM footprint is
``root + 4B/4KB x RSS`` (about 0.1% of the resident set).

Beyond the entry data, the table records per-line migrated bits for the
page (the in-memory bits of Section 4.3.2 live with the data lines; we keep
them here for O(1) bookkeeping — the *timing* of bit accesses is charged by
the system model along with the data access they accompany).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .. import units
from ..config import PipmConfig

#: Entries per radix leaf page (1K entries of 4B in a 4KB page).
LEAF_ENTRIES = 1024


class LocalRemapEntry:
    """One partially migrated page resident on this host.

    ``migrated_count`` mirrors ``bin(migrated_lines).count('1')`` and the
    owning table mirrors the sum over its entries, both maintained
    incrementally: the per-eviction peak-footprint tracking reads the
    table total on every incremental migration, and recounting bits
    across every entry there dominated whole-simulation runtime.  Mutate
    the mask only through :meth:`set_line` / :meth:`clear_line` /
    :meth:`assign_lines` so the mirrors stay exact.
    """

    __slots__ = ("page", "local_pfn", "counter", "migrated_lines",
                 "migrated_count", "table")

    def __init__(self, page: int, local_pfn: int, counter: int) -> None:
        self.page = page
        self.local_pfn = local_pfn
        self.counter = counter
        # Bitmask over the 64 lines of the page: 1 = line lives in local DRAM.
        self.migrated_lines = 0
        self.migrated_count = 0
        self.table: Optional["LocalRemapTable"] = None

    def line_migrated(self, line_in_page: int) -> bool:
        return bool(self.migrated_lines >> line_in_page & 1)

    def set_line(self, line_in_page: int) -> None:
        bit = 1 << line_in_page
        if not self.migrated_lines & bit:
            self.migrated_lines |= bit
            self.migrated_count += 1
            if self.table is not None:
                self.table._migrated_total += 1

    def clear_line(self, line_in_page: int) -> None:
        bit = 1 << line_in_page
        if self.migrated_lines & bit:
            self.migrated_lines &= ~bit
            self.migrated_count -= 1
            if self.table is not None:
                self.table._migrated_total -= 1

    def assign_lines(self, migrated_lines: int) -> None:
        """Replace the whole mask at once (snapshot-rollback path)."""
        delta = bin(migrated_lines).count("1") - self.migrated_count
        self.migrated_lines = migrated_lines
        self.migrated_count += delta
        if self.table is not None:
            self.table._migrated_total += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalRemapEntry(page={self.page:#x}, pfn={self.local_pfn}, "
            f"counter={self.counter}, lines={self.migrated_count})"
        )


class LocalRemapTable:
    """Two-level radix table of a host's partially migrated pages."""

    def __init__(self, config: PipmConfig, host_id: int) -> None:
        self.config = config
        self.host_id = host_id
        self._entries: Dict[int, LocalRemapEntry] = {}
        self._leaves_touched: set = set()
        self._migrated_total = 0

    # -- operations -----------------------------------------------------
    def lookup(self, page: int) -> Optional[LocalRemapEntry]:
        return self._entries.get(page)

    def insert(self, page: int, local_pfn: int) -> LocalRemapEntry:
        if page in self._entries:
            raise ValueError(f"page {page:#x} already partially migrated here")
        max_pfn = 1 << self.config.local_pfn_bits
        if not 0 <= local_pfn < max_pfn:
            raise ValueError(
                f"local pfn {local_pfn} does not fit in "
                f"{self.config.local_pfn_bits} bits"
            )
        entry = LocalRemapEntry(
            page, local_pfn, counter=self.config.migration_threshold
        )
        self._entries[page] = entry
        self._leaves_touched.add(page // LEAF_ENTRIES)
        entry.table = self
        return entry

    def restore(
        self, page: int, local_pfn: int, counter: int, migrated_lines: int
    ) -> LocalRemapEntry:
        """Raw reinsert of a snapshotted entry, bit-for-bit (rollback path).

        Unlike :meth:`insert`, does not reset the counter and restores the
        migrated-line bitmask exactly as captured.
        """
        if page in self._entries:
            raise ValueError(f"page {page:#x} already partially migrated here")
        entry = LocalRemapEntry(page, local_pfn, counter=counter)
        entry.assign_lines(migrated_lines)
        self._entries[page] = entry
        self._leaves_touched.add(page // LEAF_ENTRIES)
        entry.table = self
        self._migrated_total += entry.migrated_count
        return entry

    def remove(self, page: int) -> LocalRemapEntry:
        entry = self._entries.pop(page, None)
        if entry is None:
            raise KeyError(f"page {page:#x} has no local remap entry")
        entry.table = None
        self._migrated_total -= entry.migrated_count
        return entry

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[LocalRemapEntry]:
        return iter(self._entries.values())

    # -- walk cost ------------------------------------------------------
    @property
    def walk_accesses(self) -> int:
        """DRAM accesses for a table walk on a remap-cache miss (2 levels)."""
        return 2

    # -- space accounting (Section 4.4) -----------------------------------
    def size_bytes(self, resident_pages: int) -> int:
        """Root + leaf footprint for ``resident_pages`` of RSS."""
        leaves = len(self._leaves_touched) * units.PAGE_SIZE
        return self.config.radix_root_bytes + max(
            leaves, resident_pages * self.config.local_entry_bytes
        )

    def overhead_fraction(self, resident_bytes: int) -> float:
        if resident_bytes <= 0:
            return 0.0
        dynamic = resident_bytes // units.PAGE_SIZE * self.config.local_entry_bytes
        return dynamic / resident_bytes

    # -- aggregate stats -----------------------------------------------------
    def migrated_line_total(self) -> int:
        return self._migrated_total

    def page_footprint_bytes(self) -> int:
        """Local DRAM committed at page granularity (PIPM-page, Fig. 13)."""
        return len(self._entries) * units.PAGE_SIZE

    def line_footprint_bytes(self) -> int:
        """Local DRAM actually filled by migrated lines (PIPM-line, Fig. 13)."""
        return self.migrated_line_total() * units.CACHE_LINE
