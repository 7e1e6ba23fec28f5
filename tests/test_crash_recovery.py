"""Host-crash fault domain: plan validation, stall cursors, watchdog
audit families and end-to-end crash recovery."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import FaultConfig, SystemConfig
from repro.faults import FaultInjector, FaultPlan, HostCrashEvent, \
    InvariantWatchdog
from repro.faults.plan import LinkDegradeWindow
from repro.faults.watchdog import WatchdogError
from repro.policies import make_scheme
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.system import MultiHostSystem

_INF = float("inf")

#: Crash timing pulled inside a tiny-scale run (~170 us simulated).
CRASH_SPEC = ("hostdown:crash-at-ns=5e4,watchdog-mode=fail-fast,"
              "watchdog-period-ns=20000")
REJOIN_SPEC = ("hostdown-rejoin:crash-at-ns=5e4,crash-rejoin-ns=1.2e5,"
               "watchdog-mode=fail-fast,watchdog-period-ns=20000")


def _with_faults(config: SystemConfig, spec: str) -> SystemConfig:
    return dataclasses.replace(config, faults=FaultConfig.parse(spec))


# ======================================================================
# Crash knobs in FaultConfig / SystemConfig
# ======================================================================
class TestCrashConfig:
    def test_hostdown_presets(self):
        down = FaultConfig.parse("hostdown")
        down.validate()
        assert down.has_crash
        assert down.crash_rejoin_ns == 0.0  # permanent
        rejoin = FaultConfig.parse("hostdown-rejoin")
        rejoin.validate()
        assert rejoin.has_crash
        assert rejoin.crash_rejoin_ns > rejoin.crash_at_ns

    def test_crash_disabled_by_default(self):
        config = FaultConfig()
        assert not config.has_crash
        assert config.idle

    def test_crash_only_plan_cannot_disrupt_transfers(self):
        """Crashes are epoch events, not transfer noise: a crash-only
        plan runs migrations without transactions."""
        config = FaultConfig.parse("hostdown:crash-at-ns=5e4")
        plan = FaultPlan.from_config(config, num_hosts=4, num_lines=64)
        injector = FaultInjector(plan)
        assert not injector.can_disrupt_transfers
        assert injector.has_crashes

    def test_validate_rejects_bad_crash_values(self):
        with pytest.raises(ValueError, match="crash_host"):
            FaultConfig(crash_host=-2).validate()
        with pytest.raises(ValueError, match="crash_at_ns"):
            FaultConfig(crash_at_ns=-1.0).validate()
        with pytest.raises(ValueError, match="crash_rejoin_ns"):
            FaultConfig(crash_rejoin_ns=-5.0).validate()
        with pytest.raises(ValueError, match="after crash_at_ns"):
            FaultConfig(
                crash_host=1, crash_at_ns=100.0, crash_rejoin_ns=100.0
            ).validate()

    def test_system_config_rejects_out_of_range_crash_host(self):
        base = SystemConfig.scaled(num_hosts=2)
        bad = dataclasses.replace(
            base, faults=FaultConfig(crash_host=2, crash_at_ns=1e4)
        )
        with pytest.raises(ValueError, match="crash plan names host"):
            bad.validate()


# ======================================================================
# FaultPlan.validate: window semantics and schedule rejection (satellite)
# ======================================================================
class TestFaultPlanValidate:
    def _plan(self, **kwargs):
        return FaultPlan(config=FaultConfig(), num_hosts=4, **kwargs)

    def test_degrade_window_is_half_open(self):
        window = LinkDegradeWindow(0, 10.0, 20.0, latency_x=2.0)
        assert window.active(10.0)  # closed at the start...
        assert window.active(19.999)
        assert not window.active(20.0)  # ...open at the end
        assert not window.active(9.999)

    def test_adjacent_windows_do_not_overlap(self):
        plan = self._plan(degrade_windows={0: [
            LinkDegradeWindow(0, 0.0, 10.0, 2.0),
            LinkDegradeWindow(0, 10.0, 20.0, 2.0),  # touches, [10 not in 1st
        ]})
        plan.validate()  # must not raise

    def test_empty_window_rejected(self):
        plan = self._plan(degrade_windows={0: [
            LinkDegradeWindow(0, 10.0, 10.0, 2.0),
        ]})
        with pytest.raises(ValueError, match="empty degrade window"):
            plan.validate()

    def test_overlapping_windows_rejected(self):
        plan = self._plan(degrade_windows={2: [
            LinkDegradeWindow(2, 0.0, 100.0, 2.0),
            LinkDegradeWindow(2, 99.0, 200.0, 2.0),
        ]})
        with pytest.raises(ValueError, match="degrade windows overlap"):
            plan.validate()

    def test_window_beyond_horizon_rejected(self):
        plan = self._plan(degrade_windows={0: [
            LinkDegradeWindow(0, 5e5, 6e5, 2.0),
        ]})
        plan.validate()  # fine without a horizon
        with pytest.raises(ValueError, match="beyond the 100000ns horizon"):
            plan.validate(horizon_ns=1e5)

    def test_stall_duration_must_fit_period(self):
        config = FaultConfig(stall_period_ns=100.0, stall_duration_ns=100.0)
        plan = FaultPlan(config=config, num_hosts=4, stall_windows={0: []})
        with pytest.raises(ValueError, match="periodic windows would overlap"):
            plan.validate()

    def test_first_stall_beyond_horizon_rejected(self):
        config = FaultConfig(stall_period_ns=1e6, stall_duration_ns=1e4)
        plan = FaultPlan(config=config, num_hosts=4, stall_windows={1: []})
        plan.validate()
        with pytest.raises(ValueError, match="first stall window starts at"):
            plan.validate(horizon_ns=1e5)

    def test_crash_names_in_range_host(self):
        plan = self._plan(crash_events=[HostCrashEvent(4, 1e4)])
        with pytest.raises(ValueError, match="crash names host 4"):
            plan.validate()

    def test_rejoin_must_follow_crash(self):
        plan = self._plan(crash_events=[HostCrashEvent(1, 1e4, 1e4)])
        with pytest.raises(ValueError, match="is not after the crash"):
            plan.validate()

    def test_crash_beyond_horizon_rejected(self):
        plan = self._plan(crash_events=[HostCrashEvent(1, 2e5)])
        plan.validate()
        with pytest.raises(ValueError, match="crash at 200000ns, beyond"):
            plan.validate(horizon_ns=1e5)


# ======================================================================
# Injector stall cursor vs. the plan's reference arithmetic (satellite)
# ======================================================================
class TestStallCursor:
    SPEC = "none:stall-period-ns=50000,stall-duration-ns=5000,stall-hosts=0+2"

    def _pair(self):
        config = FaultConfig.parse(self.SPEC)
        plan = FaultPlan.from_config(config, num_hosts=4, num_lines=64)
        return plan, FaultInjector(plan)

    def test_cursor_matches_reference_on_monotone_sweep(self):
        plan, injector = self._pair()
        period, duration = 50000.0, 5000.0
        probes = sorted({
            0.0, 1.0, period - 1, period, period + 1,
            period + duration - 1, period + duration, period + duration + 1,
            2 * period, 2 * period + duration / 2,
            # skip several periods, then land mid-window and past it
            7 * period + 100.0, 7 * period + duration, 9 * period - 1,
            12 * period + duration - 0.5, 12 * period + duration,
        })
        for host in range(4):
            for now in probes:  # cursors assume per-host monotone clocks
                assert injector.stall_resume(host, now) == \
                    plan.stall_resume(host, now), (host, now)

    def test_next_stall_start_matches_reference(self):
        plan, injector = self._pair()
        period = 50000.0
        for host in range(4):
            for now in (0.0, 1.0, period, period + 1, 3 * period - 1,
                        8 * period + 17.0):
                assert injector.next_stall_start(host, now) == \
                    plan.next_stall_start(host, now), (host, now)

    def test_unstalled_host_never_stalls(self):
        plan, injector = self._pair()
        assert injector.stall_resume(1, 50000.0) is None
        assert plan.stall_resume(1, 50000.0) is None
        assert injector.next_stall_start(1, 0.0) == _INF

    def test_window_start_is_inclusive_end_exclusive(self):
        _, injector = self._pair()
        period, duration = 50000.0, 5000.0
        assert injector.stall_resume(0, period) == period + duration
        assert injector.stall_resume(0, period + duration) is None


# ======================================================================
# Watchdog audit families: fail-fast vs log, plus kinds ordering
# ======================================================================
def _corrupt_remap(system):
    engine = system.engine
    assert engine.request_partial_migration(3, 0)
    engine.global_table.entry(3).current_host = 77


def _corrupt_frames(system):
    engine = system.engine
    assert engine.request_partial_migration(4, 1)
    engine.local_tables[1].remove(4)  # drop the entry, leak the frame


def _corrupt_page_map(system):
    system.page_map[0xDEAD] = 0  # resident page with no backing frame


def _corrupt_directory(system):
    entry, _ = system.device_dir.allocate(9, 1, -1)
    entry.sharers.add(99)  # out-of-range sharer


def _corrupt_crash_domain(system):
    system.injector.crashed.add(1)
    system.device_dir.allocate(5, 3, 1)  # Modified line owned by the dead


_FAMILIES = [
    ("remap", "pipm", _corrupt_remap),
    ("frames", "pipm", _corrupt_frames),
    ("page-map", "nomad", _corrupt_page_map),
    ("directory", "pipm", _corrupt_directory),
    ("crash-domain", "pipm", _corrupt_crash_domain),
]


class TestWatchdogAuditFamilies:
    def _system(self, scheme):
        # A crash-capable plan so system.injector exists for crash-domain.
        config = _with_faults(SystemConfig.scaled(), "hostdown")
        return MultiHostSystem(config, make_scheme(scheme))

    @pytest.mark.parametrize("kind,scheme,corrupt", _FAMILIES,
                             ids=[f[0] for f in _FAMILIES])
    def test_log_mode_records_violation(self, kind, scheme, corrupt):
        system = self._system(scheme)
        corrupt(system)
        watchdog = InvariantWatchdog(system, mode="log")
        violations = watchdog.audit(0.0)
        assert any(v.kind == kind for v in violations), violations
        assert not watchdog.ok

    @pytest.mark.parametrize("kind,scheme,corrupt", _FAMILIES,
                             ids=[f[0] for f in _FAMILIES])
    def test_fail_fast_raises(self, kind, scheme, corrupt):
        system = self._system(scheme)
        corrupt(system)
        watchdog = InvariantWatchdog(system, mode="fail-fast")
        with pytest.raises(WatchdogError) as excinfo:
            watchdog.audit(0.0)
        assert kind in excinfo.value.kinds

    def test_crash_domain_audit_is_inert_before_any_crash(self):
        """The new audit must not fire on a healthy (or crash-free) run:
        a dead-host reference is only a violation once a host died."""
        system = self._system("pipm")
        system.device_dir.allocate(5, 3, 1)  # would trip if host 1 were dead
        assert system.injector is not None and not system.injector.crashed
        assert InvariantWatchdog(system, mode="fail-fast").audit(0.0) == []

    def test_crash_domain_flags_every_reference_shape(self):
        system = self._system("pipm")
        engine = system.engine
        system.injector.crashed.add(1)
        system.device_dir.allocate(5, 3, 1)  # owned line
        entry, _ = system.device_dir.allocate(6, 1, -1)
        entry.sharers.add(1)  # shared line
        assert engine.request_partial_migration(7, 1)  # table+frame+global
        violations = InvariantWatchdog(system, mode="log").audit(0.0)
        crash = [v.detail for v in violations if v.kind == "crash-domain"]
        assert any("still owned" in d for d in crash)
        assert any("as a sharer" in d for d in crash)
        assert any("local remap entries" in d for d in crash)
        assert any("frames in use" in d for d in crash)
        assert any("globally mapped to crashed host" in d for d in crash)

    def test_kinds_follow_audit_order(self):
        """WatchdogError.kinds must track the audit sequence, with
        crash-domain last."""
        system = self._system("pipm")
        _corrupt_remap(system)
        _corrupt_directory(system)
        _corrupt_crash_domain(system)
        with pytest.raises(WatchdogError) as excinfo:
            InvariantWatchdog(system, mode="fail-fast").audit(0.0)
        kinds = excinfo.value.kinds
        assert set(kinds) == {"remap", "directory", "crash-domain"}
        assert kinds.index("remap") < kinds.index("directory")
        assert kinds.index("directory") < kinds.index("crash-domain")


# ======================================================================
# End-to-end crash recovery (the ISSUE acceptance scenario)
# ======================================================================
class TestCrashRecoveryE2E:
    def test_crash_mid_run_is_fully_reclaimed(self, scaled_config,
                                              tiny_pr_trace):
        config = _with_faults(scaled_config, CRASH_SPEC)
        dead = config.faults.crash_host
        system = MultiHostSystem(config, make_scheme("pipm"))
        result = SimulationEngine(system, tiny_pr_trace).run()  # no raise

        # Nothing in the cluster references the dead host afterwards.
        for entry in system.device_dir.entries():
            assert entry.owner != dead and dead not in entry.sharers
        engine = system.engine
        assert len(engine.local_tables[dead]) == 0
        assert engine.frames[dead].in_use == 0
        for _, gentry in engine.global_table.items():
            assert gentry.current_host != dead
            assert gentry.candidate_host != dead
        assert system.watchdog.ok  # incl. periodic post-recovery audits
        assert system.watchdog.audits > 1

        stats = result.fault_stats
        assert stats["fault_host_crashes"] == 1.0
        assert stats["fault_crash_lines_reclaimed"] > 0
        assert stats["fault_crash_txns_aborted"] > 0
        assert stats["fault_crash_dropped_accesses"] > 0  # permanent crash
        assert stats["fault_governor_skips"] > 0  # hysteresis engaged
        assert "fault_host_rejoins" not in stats

    def test_recovery_metrics_are_exact_and_derived(self, scaled_config,
                                                    tiny_pr_trace):
        config = _with_faults(scaled_config, CRASH_SPEC)
        result = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        stats = result.fault_stats
        assert result.mttr_ns == stats["fault_crash_recovery_ns"] / \
            stats["fault_host_crashes"]
        assert result.mttr_ns > 0
        budget = result.exec_time_ns * config.num_hosts
        expected = max(0.0, 1.0 - stats["fault_crash_down_ns"] / budget)
        assert result.availability == expected
        assert 0.0 < result.availability < 1.0
        assert result.lines_reclaimed == stats["fault_crash_lines_reclaimed"]
        # Down time for a permanent crash spans crash -> end of run.
        assert stats["fault_crash_down_ns"] == pytest.approx(
            result.exec_time_ns - 5e4
        )

    def test_clean_run_reports_identity_metrics(self, scaled_config,
                                                tiny_pr_trace):
        result = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        assert result.mttr_ns == 0.0
        assert result.availability == 1.0
        assert result.lines_reclaimed == 0.0

    def test_recovery_timeline_reproduces_bit_for_bit(self, scaled_config,
                                                      tiny_pr_trace):
        config = _with_faults(scaled_config, CRASH_SPEC)
        first = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        second = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        assert first == second
        assert first.to_record() == second.to_record()

    @pytest.mark.parametrize("spec", [CRASH_SPEC, REJOIN_SPEC],
                             ids=["hostdown", "hostdown-rejoin"])
    def test_backends_agree_on_recovery(self, spec, scaled_config,
                                        tiny_pr_trace):
        config = _with_faults(scaled_config, spec)
        reference = simulate(tiny_pr_trace, make_scheme("pipm"), config,
                             fast_lane=False)
        laned = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        assert reference.to_record() == laned.to_record()
        assert reference.fault_stats["fault_host_crashes"] == 1.0

    def test_rejoin_restores_the_host_cold(self, scaled_config,
                                           tiny_pr_trace):
        config = _with_faults(scaled_config, REJOIN_SPEC)
        system = MultiHostSystem(config, make_scheme("pipm"))
        result = SimulationEngine(system, tiny_pr_trace).run()
        stats = result.fault_stats
        assert stats["fault_host_crashes"] == 1.0
        assert stats["fault_host_rejoins"] == 1.0
        # Outage is exactly the scheduled [crash, rejoin) span.
        assert stats["fault_crash_down_ns"] == 1.2e5 - 5e4
        assert "fault_crash_dropped_accesses" not in stats
        assert system.watchdog.ok
        # The rejoined host served accesses again after coming back.
        assert system.hosts[config.faults.crash_host].clock_ns > 1.2e5

    def test_crash_beyond_trace_end_is_byte_identical(self, scaled_config,
                                                      tiny_pr_trace):
        """A scheduled crash the run never reaches must cost nothing —
        the zero-plan guarantee extends to armed-but-idle crash plans."""
        config = _with_faults(scaled_config, "hostdown:crash-at-ns=9e9")
        for fast_lane in (False, True):
            plain = simulate(tiny_pr_trace, make_scheme("pipm"),
                             scaled_config, fast_lane=fast_lane)
            armed = simulate(tiny_pr_trace, make_scheme("pipm"), config,
                             fast_lane=fast_lane)
            assert plain.to_record() == armed.to_record(), fast_lane

    def test_kernel_scheme_recovers_too(self, scaled_config, tiny_pr_trace):
        config = _with_faults(scaled_config, CRASH_SPEC)
        dead = config.faults.crash_host
        system = MultiHostSystem(config, make_scheme("nomad"))
        result = SimulationEngine(system, tiny_pr_trace).run()
        assert all(host != dead for host in system.page_map.values())
        assert system.frames[dead].in_use == 0
        assert system.watchdog.ok
        assert result.fault_stats["fault_host_crashes"] == 1.0

