"""A compute host: cores, private L1s, shared LLC, TLB, local DRAM.

The host owns all node-local structures; the :class:`repro.sim.system`
model wires hosts to the CXL memory node and implements the coherence
workflows across them.  The local coherence directory (Fig. 2) holds no
state here: the system charges its lookup as ``local_dir_latency_ns``.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.sa_cache import CacheEntry, SetAssocCache, cache_from_geometry
from ..config import SystemConfig
from ..mem.controller import MemoryController
from ..stats import ScopedStats
from .core import CoreModel
from .page_table import PageTable
from .tlb import Tlb


class Host:
    """One compute node of the multi-host CXL-DSM system."""

    def __init__(
        self,
        host_id: int,
        config: SystemConfig,
        stats: ScopedStats,
        workload_mlp: float = 4.0,
    ) -> None:
        self.host_id = host_id
        self.config = config
        self.stats = stats
        self.clock_ns = 0.0
        self.core = CoreModel(config.core, workload_mlp)
        self.l1s: List[SetAssocCache] = [
            cache_from_geometry(
                config.l1.size_bytes, config.l1.ways, name=f"h{host_id}.l1.{c}"
            )
            for c in range(config.cores_per_host)
        ]
        self.llc = cache_from_geometry(
            config.llc.size_bytes, config.llc.ways, name=f"h{host_id}.llc"
        )
        self.local_mem = MemoryController(
            config.local_dram, stats.scoped("local_mem")
        )
        self.tlb = Tlb(name=f"h{host_id}.tlb")
        self.page_table = PageTable(host_id)
        # Instruction/access progress for IPC reporting.
        self.instructions = 0
        self.accesses = 0

    # -- cache helpers ----------------------------------------------------
    def l1_for(self, core: int) -> SetAssocCache:
        return self.l1s[core % len(self.l1s)]

    def invalidate_line(self, line: int) -> bool:
        """Remove ``line`` everywhere on this host; True if it was dirty."""
        dirty = False
        for l1 in self.l1s:
            entry = l1.invalidate(line)
            if entry is not None and entry.dirty:
                dirty = True
        entry = self.llc.invalidate(line)
        if entry is not None and entry.dirty:
            dirty = True
        return dirty

    def downgrade_line(self, line: int) -> bool:
        """Drop write permission for ``line``; True if a dirty copy existed.

        Used when another host reads a line this host holds in M: the copy
        stays readable (S) but the dirty data has been written back.
        """
        dirty = False
        for cache in [*self.l1s, self.llc]:
            entry = cache.peek(line)
            if entry is not None and entry.dirty:
                dirty = True
                entry.dirty = False
        return dirty

    def holds_line(self, line: int) -> bool:
        if self.llc.peek(line) is not None:
            return True
        return any(l1.peek(line) is not None for l1 in self.l1s)

    def fill_line(
        self, core: int, line: int, dirty: bool
    ) -> Optional[CacheEntry]:
        """Fill both cache levels; returns the LLC victim (for writeback)."""
        self.l1_for(core).fill(line, dirty=dirty)
        return self.llc.fill(line, dirty=dirty)

    # -- progress ----------------------------------------------------------
    def advance_compute(self, instructions: int) -> None:
        self.instructions += instructions
        self.clock_ns += self.core.compute_ns(instructions)

    def ipc(self) -> float:
        if self.clock_ns <= 0:
            return 0.0
        cycles = self.clock_ns * self.config.core.freq_ghz
        return self.instructions / cycles if cycles else 0.0
