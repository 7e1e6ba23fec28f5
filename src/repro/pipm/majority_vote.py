"""PIPM majority-vote migration policy (Section 4.2).

A hardware Boyer-Moore majority vote per CXL-DSM page:

* the **global counter** (6-bit, saturating) increments when the candidate
  host accesses the page and decrements otherwise; when it hits zero the
  *next* accessor becomes the candidate; when it reaches the migration
  threshold, partial migration to the candidate is initiated,
* the **local counter** (4-bit, saturating) counts local accesses to a
  partially migrated page and is decremented by inter-host accesses; at
  zero the partial migration is revoked.

The vote only *identifies* pages and hosts — no data moves here.  The
engine (and the OS-skew baseline) act on the returned decisions.
"""

from __future__ import annotations

from enum import Enum, auto

from ..config import PipmConfig
from .remap_global import NO_HOST, GlobalRemapEntry
from .remap_local import LocalRemapEntry


class VoteDecision(Enum):
    """Outcome of a counter update."""

    NONE = auto()
    PROMOTE = auto()  # initiate partial migration to the candidate host
    REVOKE = auto()  # revoke partial migration of this page


class MajorityVote:
    """Counter-update rules shared by PIPM and the OS-skew baseline."""

    def __init__(self, config: PipmConfig) -> None:
        self.config = config
        self.threshold = config.migration_threshold
        self._global_max = config.global_counter_max
        self._local_max = config.local_counter_max
        if self.threshold < 1:
            raise ValueError("migration threshold must be >= 1")

    # -- global counter (at the CXL memory node) -------------------------
    def on_cxl_access(self, entry: GlobalRemapEntry, host: int) -> VoteDecision:
        """Update the global counter for an access to a non-migrated page.

        Returns ``PROMOTE`` exactly when the counter crosses the threshold
        for the candidate host (step 2 of Fig. 7); callers decide whether a
        local frame is actually available.
        """
        if entry.current_host != NO_HOST:
            raise ValueError(
                "global vote applies only to pages not currently migrated"
            )
        if entry.candidate_host == NO_HOST or entry.counter == 0:
            # Step 1 of Fig. 7: the next accessor claims candidacy.
            entry.candidate_host = host
            entry.counter = 1
            return VoteDecision.NONE
        if entry.candidate_host == host:
            if entry.counter < self._global_max:
                entry.counter += 1
            if entry.counter >= self.threshold:
                return VoteDecision.PROMOTE
            return VoteDecision.NONE
        entry.counter -= 1
        return VoteDecision.NONE

    def promote(self, entry: GlobalRemapEntry) -> int:
        """Commit a promotion: returns the destination host id."""
        host = entry.candidate_host
        if host == NO_HOST:
            raise ValueError("promotion with no candidate host")
        entry.current_host = host
        entry.counter = 0
        entry.candidate_host = NO_HOST
        return host

    # -- local counter (in the host's local remapping table) ---------------
    def on_local_access(self, entry: LocalRemapEntry) -> None:
        """Step 4 of Fig. 7: local accesses bypass the global counter."""
        if entry.counter < self._local_max:
            entry.counter += 1

    def on_inter_host_access(self, entry: LocalRemapEntry) -> VoteDecision:
        """Step 5 of Fig. 7: inter-host accesses decrement the local counter."""
        if entry.counter > 0:
            entry.counter -= 1
        if entry.counter == 0:
            return VoteDecision.REVOKE
        return VoteDecision.NONE

    def revoke(self, entry: GlobalRemapEntry) -> None:
        """Step 6 of Fig. 7: reset the page's global state after revocation."""
        entry.current_host = NO_HOST
        entry.candidate_host = NO_HOST
        entry.counter = 0
