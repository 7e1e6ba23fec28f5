"""Coherence states, including PIPM's ME and I' states (Fig. 9).

The paper encodes the two new states by pairing the existing directory
states with a 1-bit in-memory state stored alongside ECC:

==================  =================  ============  =================
PIPM state          directory state    in-memory bit  meaning
==================  =================  ============  =================
``ME``              ME (new, local)    1             migrated + exclusively cached
``I'`` (``I_MIG``)  I                  1             migrated, not cached
``M``/``S``/``I``   M/S/I              0             standard MESI
==================  =================  ============  =================
"""

from __future__ import annotations

from enum import IntEnum


class CacheState(IntEnum):
    """Directory/cache coherence states (standard MESI plus PIPM's ME/I')."""

    I = 0  # noqa: E741 - the canonical protocol name
    S = 1
    E = 2
    M = 3
    ME = 4  # Migrated-Modified/Exclusive (local directory only)
    I_MIG = 5  # I' - migrated to a host's local memory, not cached

    @property
    def is_valid_copy(self) -> bool:
        """Whether a cache holding this state has readable data."""
        return self in (CacheState.S, CacheState.E, CacheState.M, CacheState.ME)

    @property
    def is_writer(self) -> bool:
        """Whether this state grants write permission (SWMR 'writer')."""
        return self in (CacheState.M, CacheState.E, CacheState.ME)
