"""Runtime fault injection: the hooks the timing models consult.

The :class:`FaultInjector` owns one seeded RNG stream per link so error
draws are reproducible and independent of how other links behave.  Links
consult their :class:`LinkFaultModel` on every transfer; the system model
consults the injector for degraded-link gating, host stalls, poisoned
lines, and host crashes; everything feeds one shared
:class:`FaultCounters` record that the simulation result reports from.

The engine's fast lane runs under every plan.  Stall windows, poison
arrivals and crash epochs are event bounds that no lane run crosses.  On
a link with no degrade window the lane flies each transfer inline and
calls :meth:`LinkFaultModel.draw_error` after the leg's edge hop, where
the link's own transfer draws, so every link's error stream is consumed
in the same order lane on or off; a drawn error runs the link's retry
tail.  A link with degrade windows keeps its traffic on the path's own
transfer methods.  Beyond the error streams, the only injector state a
lane access reads is the migration governor
(:meth:`FaultInjector.promotion_blocked`): its answer, with pure reads,
then the real call whenever that call would block a promotion.

The zero-plan guarantee: when a fault source cannot fire, the
corresponding hook is ``None`` (links) or short-circuits on a cached
boolean (stalls/poison/crashes), so an all-zero plan leaves the simulated
timing bit-for-bit identical to a run with faults disabled.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .plan import FaultPlan, LinkDegradeWindow

_INF = float("inf")


@dataclass
class FaultCounters:
    """Every fault/recovery event the resilience evaluation reports on."""

    injected_errors: int = 0  # transfer attempts that drew an error
    link_retries: int = 0  # failed attempts that were retried
    link_giveups: int = 0  # transfers that exhausted the retry budget
    migration_aborts: int = 0  # migrations abandoned mid-flight
    migration_timeouts: int = 0  # aborts caused by the transfer timeout
    rollbacks: int = 0  # remap-table snapshots restored
    degraded_skips: int = 0  # migration-policy work skipped on a degraded link
    host_stall_ns: float = 0.0  # simulated time lost to host pauses
    poison_recoveries: int = 0  # poisoned-line scrub-and-refetch events
    recovery_ns: float = 0.0  # latency charged to fault recovery
    # -- host crash / recovery -------------------------------------------
    host_crashes: int = 0  # hosts that fail-stopped
    host_rejoins: int = 0  # crashed hosts that came back (cold)
    crash_lost_updates: int = 0  # dirty state lost with a dead host
    crash_lines_reclaimed: int = 0  # directory entries repaired/removed
    crash_pages_reclaimed: int = 0  # remap/kernel pages torn down
    crash_txns_aborted: int = 0  # orphaned migration txns rolled back
    crash_dropped_accesses: int = 0  # dead host's unserved trace accesses
    crash_recovery_ns: float = 0.0  # total MTTR charged across recoveries
    crash_down_ns: float = 0.0  # host-ns of unavailability (finalize)
    governor_skips: int = 0  # promotions suppressed by the governor


class LinkFaultModel:
    """Per-link fault state: error stream + degradation windows."""

    __slots__ = ("host", "error_rate", "max_attempts", "retry_backoff_ns",
                 "giveup_penalty_ns", "windows", "counters", "_rng",
                 "_window_starts")

    def __init__(
        self,
        host: int,
        plan: FaultPlan,
        counters: FaultCounters,
    ) -> None:
        config = plan.config
        self.host = host
        self.error_rate = config.transfer_error_rate
        self.max_attempts = config.max_attempts
        self.retry_backoff_ns = config.retry_backoff_ns
        self.giveup_penalty_ns = config.giveup_penalty_ns
        # Windows are sorted (and validated non-overlapping) so membership
        # is a bisect over start times instead of a linear scan: the
        # candidate window is the last one starting at or before ``now``.
        self.windows: List[LinkDegradeWindow] = sorted(
            plan.windows_for(host), key=lambda w: w.start_ns
        )
        self._window_starts = [w.start_ns for w in self.windows]
        self.counters = counters
        # One independent deterministic stream per link.
        self._rng = random.Random(config.seed * 0x9E3779B1 + host)

    def window_at(self, now: float) -> Optional[LinkDegradeWindow]:
        idx = bisect_right(self._window_starts, now) - 1
        if idx < 0:
            return None
        window = self.windows[idx]
        return window if now < window.end_ns else None

    def degraded(self, now: float) -> bool:
        return self.window_at(now) is not None

    def draw_error(self) -> bool:
        """One CRC-error draw.  Never called when the rate is zero."""
        if self._rng.random() < self.error_rate:
            self.counters.injected_errors += 1
            return True
        return False


class FaultInjector:
    """All runtime fault state for one simulation run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._links: List[Optional[LinkFaultModel]] = [
            LinkFaultModel(host, plan, self.counters)
            if plan.config.transfer_error_rate > 0.0 or plan.windows_for(host)
            else None
            for host in range(plan.num_hosts)
        ]
        # -- host stalls -------------------------------------------------
        self.has_stalls = bool(plan.stall_windows)
        self._stall_period = plan.config.stall_period_ns
        self._stall_duration = plan.config.stall_duration_ns
        self._stalls_host = [
            host in plan.stall_windows for host in range(plan.num_hosts)
        ]
        # Per-host cursor: the start of the next stall window this host
        # has not yet passed.  Hosts consult stalls at their own heap
        # turns, whose clocks are monotone per host, so the cursor only
        # ever advances (see stall_resume).
        self._stall_next_start = [
            self._stall_period if self._stalls_host[host] else _INF
            for host in range(plan.num_hosts)
        ]
        # -- poison ------------------------------------------------------
        self._poison_queue = list(plan.poison_events)  # sorted by at_ns
        self._poison_idx = 0
        self.poisoned: Set[int] = set()
        self.has_poison = bool(self._poison_queue)
        self.poison_penalty_ns = plan.config.poison_penalty_ns
        self.migration_timeout_ns = plan.config.migration_timeout_ns
        # -- host crashes ------------------------------------------------
        # One unified epoch schedule: crashes and rejoins, sorted by time,
        # consumed once through a cursor (like the poison queue).
        schedule: List[Tuple[float, int, bool]] = []
        for event in plan.crash_events:
            schedule.append((event.at_ns, event.host, False))
            if event.rejoin_ns is not None:
                schedule.append((event.rejoin_ns, event.host, True))
        schedule.sort()
        self._crash_schedule = schedule
        self._crash_idx = 0
        #: The next unconsumed crash/rejoin epoch (inf when none remain).
        #: A plain attribute: the engine's slow path compares every
        #: access's clock against it (via ``MultiHostSystem.maybe_crash``),
        #: the fast lane uses it as an event bound, and only
        #: :meth:`due_crash_events` moves it.
        self.next_crash_ns = schedule[0][0] if schedule else _INF
        self.has_crashes = bool(schedule)
        self.crashed: Set[int] = set()
        self._rejoin_at: Dict[int, float] = {
            event.host: (event.rejoin_ns if event.rejoin_ns is not None
                         else _INF)
            for event in plan.crash_events
        }
        self.crash_detect_ns = plan.config.crash_detect_ns
        # -- migration governor ------------------------------------------
        self.governor_hold_ns = plan.config.governor_hold_ns
        #: Promotions stay blocked while ``now`` is below this.  The fast
        #: lane reads it live per access (see promotion_blocked).
        self._suspended_until = 0.0

    # -- links -----------------------------------------------------------
    def link(self, host: int) -> Optional[LinkFaultModel]:
        """The per-link fault hook, or ``None`` when nothing can fire."""
        return self._links[host]

    def link_degraded(self, host: int, now: float) -> bool:
        model = self._links[host]
        return model is not None and model.degraded(now)

    @property
    def can_disrupt_transfers(self) -> bool:
        return self.plan.can_disrupt_transfers

    # -- host stalls ------------------------------------------------------
    def stall_resume(self, host: int, now: float) -> Optional[float]:
        """When the stall window covering ``now`` ends, if any.

        Cursor-based equivalent of :meth:`FaultPlan.stall_resume` (the
        reference implementation, kept for tests): a host's stall checks
        happen at its own monotone heap turns, so past window starts never
        need rescanning — advance the per-host cursor to the first window
        start at or beyond ``now``'s period and compare once.
        """
        if not self._stalls_host[host]:
            return None
        period = self._stall_period
        start = self._stall_next_start[host]
        if now >= start + period:
            # Skipped whole periods; resynchronize to now's own window.
            start = (now // period) * period
            self._stall_next_start[host] = start
        elif now >= start + self._stall_duration:
            # Past this window; it can never cover a later ``now``.
            self._stall_next_start[host] = start + period
            return None
        if start <= now < start + self._stall_duration:
            return start + self._stall_duration
        return None

    def next_stall_start(self, host: int, now: float) -> float:
        """First stall-window start strictly after ``now`` (inf if none)."""
        if not self._stalls_host[host]:
            return _INF
        period = self._stall_period
        return (now // period + 1) * period

    # -- poisoned lines ---------------------------------------------------
    @property
    def next_poison_ns(self) -> float:
        if self._poison_idx >= len(self._poison_queue):
            return _INF
        return self._poison_queue[self._poison_idx].at_ns

    def activate_poison(self, now: float) -> List[int]:
        """Lines whose poison events came due by ``now`` (consumed once)."""
        due: List[int] = []
        queue = self._poison_queue
        while self._poison_idx < len(queue) and (
            queue[self._poison_idx].at_ns <= now
        ):
            line = queue[self._poison_idx].line
            self._poison_idx += 1
            if line not in self.poisoned:
                self.poisoned.add(line)
                due.append(line)
        return due

    def clear_poison(self, line: int) -> None:
        self.poisoned.discard(line)
        self.counters.poison_recoveries += 1
        self.counters.recovery_ns += self.poison_penalty_ns

    # -- host crashes -----------------------------------------------------
    def due_crash_events(self, now: float) -> List[Tuple[int, bool]]:
        """``(host, is_rejoin)`` epochs due by ``now`` (consumed once)."""
        due: List[Tuple[int, bool]] = []
        schedule = self._crash_schedule
        while self._crash_idx < len(schedule) and (
            schedule[self._crash_idx][0] <= now
        ):
            _, host, is_rejoin = schedule[self._crash_idx]
            self._crash_idx += 1
            due.append((host, is_rejoin))
        self.next_crash_ns = (
            schedule[self._crash_idx][0]
            if self._crash_idx < len(schedule) else _INF
        )
        return due

    def crash_resume(self, host: int, clock: float) -> Optional[float]:
        """Whether ``host`` is dead at ``clock``, and until when.

        ``None``: alive, proceed.  ``inf``: dead forever — the caller
        drops the host's remaining stream.  A finite value: the rejoin
        epoch — the caller pauses the stream until then.
        """
        if host not in self.crashed:
            return None
        rejoin = self._rejoin_at.get(host, _INF)
        if rejoin == _INF:
            return _INF
        return rejoin if clock < rejoin else None

    # -- migration governor -----------------------------------------------
    def promotion_blocked(self, host: int, now: float) -> bool:
        """Whether PIPM promotions are suppressed for ``host`` at ``now``.

        Two triggers: an active hysteresis hold (a crash recovery in
        progress, or the tail of one), and a degraded link — the latter
        also arms/extends the hold so a flapping link keeps promotions
        off for ``governor_hold_ns`` past its last degraded observation.

        A ``False`` answer mutates nothing, so the engine's fast lane
        computes this answer with pure reads (``_suspended_until``, then
        the host's :meth:`LinkFaultModel.window_at`) and makes the call
        only when it is ``True``, where it counts the skip and may arm
        the hold, exactly as on the slow path.
        """
        if now < self._suspended_until:
            self.counters.governor_skips += 1
            return True
        if self.link_degraded(host, now):
            self.counters.degraded_skips += 1
            if self.governor_hold_ns > 0:
                self._suspended_until = now + self.governor_hold_ns
            return True
        return False

    def suspend_promotions(self, until_ns: float) -> None:
        """Hold promotions suspended through ``until_ns`` (recovery)."""
        if until_ns > self._suspended_until:
            self._suspended_until = until_ns
