"""OS-skew ablation: PIPM's majority-vote policy + kernel migration mechanism.

Separates the *policy* contribution from the *mechanism* contribution
(Section 5.2.2): pages are selected with exactly PIPM's Boyer-Moore
majority vote (so migrations are inter-host-aware and rarely harmful), but
data still moves with conventional whole-page kernel migration at interval
granularity — page-table updates, TLB shootdowns, full 4 KB transfers, and
non-cacheable inter-host access to migrated pages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import PipmConfig
from ..pipm.majority_vote import MajorityVote, VoteDecision
from ..pipm.remap_global import GlobalRemapEntry
from .base import IntervalSchemeBase, MigrationPlan


class OsSkewScheme(IntervalSchemeBase):
    """Majority-vote page selection, kernel page movement."""

    name = "os-skew"
    initiator_cost_scale = 1.0
    free_clean_demotions = False

    def __init__(
        self,
        interval_ns: Optional[float] = None,
        max_pages_per_interval: int = 512,
        pipm_config: Optional[PipmConfig] = None,
    ) -> None:
        super().__init__(interval_ns, max_pages_per_interval)
        self.pipm_config = pipm_config if pipm_config is not None else PipmConfig()
        self.vote = MajorityVote(self.pipm_config)
        self._entries: Dict[int, GlobalRemapEntry] = {}
        self._local_counters: Dict[int, int] = {}
        self._pending_promotions: List[Tuple[int, int]] = []
        self._pending_demotions: List[Tuple[int, int]] = []
        self._queued: set = set()
        self._migrated: Dict[int, int] = {}
        #: revoked pages sit out this many intervals before re-promotion —
        #: hysteresis against promote/revoke churn on contested pages.
        self.revoke_cooldown_intervals = 5
        self._cooldown: Dict[int, int] = {}
        self._interval_index = 0

    def _entry(self, page: int) -> GlobalRemapEntry:
        entry = self._entries.get(page)
        if entry is None:
            entry = GlobalRemapEntry()
            self._entries[page] = entry
        return entry

    def observe_shared_access(
        self, host: int, page: int, now: float, is_write: bool
    ) -> None:
        super().observe_shared_access(host, page, now, is_write)
        owner = self._migrated.get(page)
        if owner is None:
            if page in self._queued or page in self._cooldown:
                return
            entry = self._entry(page)
            if self.vote.on_cxl_access(entry, host) is VoteDecision.PROMOTE:
                self._pending_promotions.append((page, entry.candidate_host))
                self._queued.add(page)
            return
        # Migrated page: maintain the page-level local counter.
        counter = self._local_counters.get(
            page, self.pipm_config.migration_threshold
        )
        if host == owner:
            counter = min(counter + 1, self.pipm_config.local_counter_max)
        else:
            counter -= 1
            if counter <= 0 and page not in self._queued:
                self._pending_demotions.append((page, owner))
                self._queued.add(page)
                counter = 0
        self._local_counters[page] = counter

    def plan_interval(
        self,
        now: float,
        page_locations: Dict[int, int],
        frames_free: Dict[int, int],
    ) -> MigrationPlan:
        plan = MigrationPlan()
        self._interval_index += 1
        expired = [
            page for page, until in self._cooldown.items()
            if until <= self._interval_index
        ]
        for page in expired:
            del self._cooldown[page]
        free = dict(frames_free)
        budget = self.max_pages_per_interval
        for page, host in self._pending_demotions:
            if self._migrated.get(page) == host:
                plan.demotions.append((page, host))
                free[host] = free.get(host, 0) + 1
        for page, host in self._pending_promotions[:budget]:
            if free.get(host, 0) <= 0:
                continue
            free[host] -= 1
            plan.promotions.append((page, host))
        # Commit local bookkeeping of what will move.
        for page, host in plan.promotions:
            self._migrated[page] = host
            self._entry(page).current_host = host
            self._local_counters[page] = self.pipm_config.migration_threshold
        for page, host in plan.demotions:
            self._migrated.pop(page, None)
            self._local_counters.pop(page, None)
            self.vote.revoke(self._entry(page))
            self._cooldown[page] = (
                self._interval_index + self.revoke_cooldown_intervals
            )
        self._pending_promotions.clear()
        self._pending_demotions.clear()
        self._queued.clear()
        return plan
