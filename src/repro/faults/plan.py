"""Deterministic fault plans: what misbehaves, where, and when.

A :class:`FaultPlan` expands the scalar knobs of
:class:`repro.config.FaultConfig` into concrete, seed-derived events laid
out against simulated time: per-link degradation windows, per-host stall
windows, and poisoned-line events.  Transient transfer errors stay
rate-based (drawn from per-link seeded RNG streams inside the injector) so
they scale with traffic instead of requiring a pre-materialized schedule.

Everything here is pure data; the :mod:`repro.faults.injector` turns a plan
into the runtime hooks the link/system/engine models consult.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import FaultConfig


@dataclass(frozen=True)
class LinkDegradeWindow:
    """One interval during which a host's CXL link runs degraded."""

    host: int
    start_ns: float
    end_ns: float
    latency_x: float = 1.0  # multiplies the one-way latency
    bandwidth_x: float = 1.0  # divides the per-direction bandwidth

    def active(self, now: float) -> bool:
        return self.start_ns <= now < self.end_ns


@dataclass(frozen=True)
class HostStallWindow:
    """One interval during which a host executes nothing (pause/OS stall)."""

    host: int
    start_ns: float
    duration_ns: float

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class PoisonEvent:
    """A cache line in CXL memory becomes poisoned at ``at_ns``."""

    at_ns: float
    line: int


@dataclass(frozen=True)
class HostCrashEvent:
    """A host fail-stops at ``at_ns`` and optionally rejoins later.

    A crash is a *permanent* fault (contrast the self-healing stall /
    degrade / poison clauses): the dead host's protocol state — directory
    ownership, in-flight migration transactions, remap entries naming its
    DRAM — must be actively reclaimed by the survivors.  ``rejoin_ns`` of
    ``None`` means the host never comes back; otherwise it rejoins with
    cold caches and TLB at that epoch.
    """

    host: int
    at_ns: float
    rejoin_ns: Optional[float] = None


@dataclass
class FaultPlan:
    """A fully materialized, reproducible fault schedule for one run."""

    config: FaultConfig
    num_hosts: int
    degrade_windows: Dict[int, List[LinkDegradeWindow]] = field(
        default_factory=dict
    )
    stall_windows: Dict[int, List[HostStallWindow]] = field(
        default_factory=dict
    )
    poison_events: List[PoisonEvent] = field(default_factory=list)
    crash_events: List[HostCrashEvent] = field(default_factory=list)

    @classmethod
    def from_config(
        cls, config: FaultConfig, num_hosts: int, num_lines: int
    ) -> "FaultPlan":
        """Expand scalar knobs into concrete seeded events.

        ``num_lines`` bounds the poisonable line range (the CXL-DSM pool).
        """
        config.validate()
        plan = cls(config=config, num_hosts=num_hosts)

        if config.has_degrade_window:
            hosts = config.degrade_hosts or tuple(range(num_hosts))
            for host in hosts:
                plan.degrade_windows[host] = [
                    LinkDegradeWindow(
                        host,
                        config.degrade_start_ns,
                        config.degrade_end_ns,
                        config.degrade_latency_x,
                        config.degrade_bandwidth_x,
                    )
                ]

        if config.has_stalls:
            # Stall windows repeat every period; materialization is lazy
            # (see stall_resume) because trace duration is unknown here.
            hosts = config.stall_hosts or tuple(range(num_hosts))
            for host in hosts:
                plan.stall_windows[host] = []  # marker: host stalls

        if config.has_poison and num_lines > 0:
            rng = random.Random(config.seed * 0x9E3779B1 + 1)
            plan.poison_events = sorted(
                (
                    PoisonEvent(
                        (k + 1) * config.poison_period_ns,
                        rng.randrange(num_lines),
                    )
                    for k in range(config.poison_count)
                ),
                key=lambda e: e.at_ns,
            )

        if config.has_crash:
            plan.crash_events = [
                HostCrashEvent(
                    config.crash_host,
                    config.crash_at_ns,
                    config.crash_rejoin_ns or None,
                )
            ]

        plan.validate()
        return plan

    # -- validation ------------------------------------------------------
    def validate(self, horizon_ns: Optional[float] = None) -> None:
        """Reject malformed schedules instead of silently accepting them.

        Checks: every degrade window is non-empty (``end > start``) and no
        two windows on the same host overlap under the ``[start, end)``
        semantics of :meth:`LinkDegradeWindow.active`; periodic stall
        windows do not overlap their successors (``duration < period``);
        crash events name an in-range host and rejoin strictly after the
        crash.  With ``horizon_ns``, windows/events that begin at or past
        the horizon can never fire and are rejected as plan bugs.
        """
        for host, windows in sorted(self.degrade_windows.items()):
            ordered = sorted(windows, key=lambda w: w.start_ns)
            for window in ordered:
                if window.end_ns <= window.start_ns:
                    raise ValueError(
                        f"host {host}: empty degrade window "
                        f"[{window.start_ns:g}, {window.end_ns:g})"
                    )
                if horizon_ns is not None and window.start_ns >= horizon_ns:
                    raise ValueError(
                        f"host {host}: degrade window starts at "
                        f"{window.start_ns:g}ns, beyond the "
                        f"{horizon_ns:g}ns horizon"
                    )
            for prev, nxt in zip(ordered, ordered[1:]):
                if nxt.start_ns < prev.end_ns:
                    raise ValueError(
                        f"host {host}: degrade windows overlap "
                        f"([{prev.start_ns:g}, {prev.end_ns:g}) and "
                        f"[{nxt.start_ns:g}, {nxt.end_ns:g}))"
                    )
        if self.stall_windows:
            period = self.config.stall_period_ns
            duration = self.config.stall_duration_ns
            if duration >= period:
                raise ValueError(
                    f"stall duration {duration:g}ns >= period {period:g}ns: "
                    f"periodic windows would overlap"
                )
            if horizon_ns is not None and period >= horizon_ns:
                raise ValueError(
                    f"first stall window starts at {period:g}ns, beyond "
                    f"the {horizon_ns:g}ns horizon"
                )
        for event in self.crash_events:
            if not 0 <= event.host < self.num_hosts:
                raise ValueError(
                    f"crash names host {event.host}, plan has "
                    f"{self.num_hosts} hosts"
                )
            if event.rejoin_ns is not None and event.rejoin_ns <= event.at_ns:
                raise ValueError(
                    f"host {event.host}: rejoin at {event.rejoin_ns:g}ns "
                    f"is not after the crash at {event.at_ns:g}ns"
                )
            if horizon_ns is not None and event.at_ns >= horizon_ns:
                raise ValueError(
                    f"host {event.host}: crash at {event.at_ns:g}ns, "
                    f"beyond the {horizon_ns:g}ns horizon"
                )

    # -- queries ---------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        """No fault source can ever fire."""
        return (
            self.config.transfer_error_rate <= 0.0
            and not self.degrade_windows
            and not self.stall_windows
            and not self.poison_events
            and not self.crash_events
        )

    @property
    def can_disrupt_transfers(self) -> bool:
        """Transfers may fail or time out (migrations need transactions)."""
        return self.config.transfer_error_rate > 0.0 or bool(
            self.degrade_windows
        )

    def windows_for(self, host: int) -> List[LinkDegradeWindow]:
        return self.degrade_windows.get(host, [])

    def stall_resume(self, host: int, now: float) -> Optional[float]:
        """If ``host`` is inside a stall window at ``now``, when it ends."""
        if host not in self.stall_windows:
            return None
        period = self.config.stall_period_ns
        start = (now // period) * period
        if start <= 0:
            return None  # no window before the first period boundary
        end = start + self.config.stall_duration_ns
        if start <= now < end:
            return end
        return None

    def next_stall_start(self, host: int, now: float) -> float:
        """The first stall-window start strictly after ``now`` (inf if none).

        A fence for batched execution: a host known to be outside any
        window at ``now`` stays outside one until this boundary, so a run
        of accesses whose clocks stay below it never needs the per-access
        ``stall_resume`` check.
        """
        if host not in self.stall_windows:
            return float("inf")
        period = self.config.stall_period_ns
        return (now // period + 1) * period
