"""Memory controller front-end: a thin facade over a :class:`DramPool`.

Separated from :mod:`repro.mem.dram` so host local memory and CXL memory can
attach identical controllers while the system model charges different
interconnect costs in front of them.
"""

from __future__ import annotations

from typing import Optional

from .. import units
from ..config import DramConfig
from ..stats import ScopedStats
from .dram import DramPool

_CACHE_LINE = units.CACHE_LINE


class MemoryController:
    """Serves line and page granule requests against a DRAM pool.

    Every cache miss reads or writes one line here, so the line methods
    pick the channel and run :meth:`DramChannel.access`'s cache-line
    arithmetic inline on the channel's slots (same open-row update,
    queueing, counter bumps and float order).  Page transfers keep the
    generic :meth:`DramPool.access` path.
    """

    def __init__(self, config: DramConfig, stats: Optional[ScopedStats] = None):
        self.config = config
        self.pool = DramPool(config, stats)
        self._stats = stats
        self._channels = self.pool.channels
        self._num_channels = self.pool._num_channels
        self._interleave_shift = self.pool._interleave_shift

    def read_line(self, addr: int, now: float) -> float:
        channel = self._channels[
            (addr >> self._interleave_shift) % self._num_channels
        ]
        row = addr // channel._row_bytes
        bank = row % channel._banks
        open_rows = channel._open_rows
        if open_rows.get(bank) == row:
            device_ns = channel._row_hit_ns
            channel._row_hits.value += 1
        else:
            device_ns = channel._row_miss_ns
            open_rows[bank] = row
            channel._row_misses.value += 1
        serialization = channel._line_ns
        busy = channel._busy_until
        if busy > now:
            queue_delay = busy - now
            channel._busy_until = busy + serialization
        else:
            queue_delay = 0.0
            channel._busy_until = now + serialization
        channel._accesses.value += 1
        channel._bytes.value += _CACHE_LINE
        channel._queue_ns.value += queue_delay
        return device_ns + queue_delay + serialization

    #: A line write occupies the channel exactly like a line read.
    write_line = read_line

    def transfer_page(self, addr: int, now: float) -> float:
        """Stream a whole 4 KB page (used by kernel page migration)."""
        return self.pool.access(addr, now, units.PAGE_SIZE)

    def reset(self) -> None:
        self.pool.reset()
