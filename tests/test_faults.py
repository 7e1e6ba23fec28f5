"""Fault injection and resilience: config, link faults, transactions,
watchdog, and the end-to-end zero-cost / reproducibility guarantees."""

from __future__ import annotations

import dataclasses

import pytest

from repro import units
from repro.config import FaultConfig, SystemConfig
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantWatchdog,
    LinkTransferError,
)
from repro.faults.watchdog import WatchdogError
from repro.mem.cxl_link import TO_DEVICE, CxlLink
from repro.pipm.engine import PipmEngine
from repro.policies import make_scheme
from repro.sim.engine import SimulationEngine, simulate
from repro.sim.harness import DEFAULT_SCHEMES
from repro.sim.system import MultiHostSystem
from repro.stats import StatRegistry
from repro.workloads.trace import WorkloadTrace


def _with_faults(config: SystemConfig, spec: str) -> SystemConfig:
    return dataclasses.replace(config, faults=FaultConfig.parse(spec))


# ======================================================================
# FaultConfig parsing and validation
# ======================================================================
class TestFaultConfig:
    def test_none_preset_is_idle(self):
        config = FaultConfig.parse("none")
        assert config.idle
        assert not config.has_degrade_window
        assert not config.has_stalls
        assert not config.has_poison

    def test_presets_exist_and_validate(self):
        for preset in FaultConfig.PRESETS:
            FaultConfig.parse(preset).validate()

    def test_preset_with_overrides(self):
        config = FaultConfig.parse("degraded:seed=3,max-attempts=7")
        assert config.seed == 3
        assert config.max_attempts == 7
        assert config.degrade_latency_x == 4.0  # preset value survives

    def test_bare_overrides_imply_none_preset(self):
        config = FaultConfig.parse("transfer-error-rate=0.25")
        assert config.transfer_error_rate == 0.25
        assert not config.has_degrade_window

    def test_host_list_parsing(self):
        config = FaultConfig.parse(
            "none:degrade-hosts=0+2,degrade-start-ns=0,degrade-end-ns=100,"
            "degrade-latency-x=2"
        )
        assert config.degrade_hosts == (0, 2)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            FaultConfig.parse("cosmic-rays")

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError, match="bad fault override"):
            FaultConfig.parse("none:not_a_knob=1")

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FaultConfig(transfer_error_rate=1.5).validate()
        with pytest.raises(ValueError):
            FaultConfig(max_attempts=0).validate()
        with pytest.raises(ValueError):
            FaultConfig(degrade_latency_x=0.5).validate()
        with pytest.raises(ValueError):
            FaultConfig(watchdog_mode="panic").validate()

    def test_system_config_validates_fault_hosts(self):
        base = SystemConfig.scaled(num_hosts=2)
        bad = dataclasses.replace(
            base,
            faults=FaultConfig(
                degrade_hosts=(5,), degrade_end_ns=10.0, degrade_latency_x=2.0
            ),
        )
        with pytest.raises(ValueError):
            bad.validate()


# ======================================================================
# FaultPlan expansion
# ======================================================================
class TestFaultPlan:
    def test_idle_plan_attaches_no_link_models(self):
        plan = FaultPlan.from_config(FaultConfig(), num_hosts=4, num_lines=64)
        assert plan.is_idle
        injector = FaultInjector(plan)
        assert all(injector.link(h) is None for h in range(4))
        assert not injector.can_disrupt_transfers
        assert not injector.has_stalls
        assert not injector.has_poison

    def test_degrade_window_expansion(self):
        config = FaultConfig.parse(
            "none:degrade-start-ns=10,degrade-end-ns=20,degrade-latency-x=3,"
            "degrade-hosts=1"
        )
        plan = FaultPlan.from_config(config, num_hosts=4, num_lines=64)
        assert plan.windows_for(0) == []
        (window,) = plan.windows_for(1)
        assert window.active(15.0) and not window.active(25.0)
        assert plan.can_disrupt_transfers

    def test_poison_events_seeded_and_sorted(self):
        config = FaultConfig.parse(
            "none:poison-count=8,poison-period-ns=100,seed=5"
        )
        plan_a = FaultPlan.from_config(config, num_hosts=2, num_lines=512)
        plan_b = FaultPlan.from_config(config, num_hosts=2, num_lines=512)
        assert plan_a.poison_events == plan_b.poison_events
        ats = [e.at_ns for e in plan_a.poison_events]
        assert ats == sorted(ats) and len(ats) == 8
        other_seed = dataclasses.replace(config, seed=6)
        plan_c = FaultPlan.from_config(other_seed, num_hosts=2, num_lines=512)
        assert plan_c.poison_events != plan_a.poison_events

    def test_stall_resume_windows(self):
        config = FaultConfig.parse(
            "none:stall-period-ns=100,stall-duration-ns=10"
        )
        plan = FaultPlan.from_config(config, num_hosts=2, num_lines=64)
        assert plan.stall_resume(0, 50.0) is None  # before first boundary
        assert plan.stall_resume(0, 105.0) == pytest.approx(110.0)
        assert plan.stall_resume(0, 115.0) is None  # window over
        assert plan.stall_resume(0, 205.0) == pytest.approx(210.0)


# ======================================================================
# CxlLink: guards, retries, degradation, reset
# ======================================================================
class TestCxlLink:
    def _link(self, config=None, stats=None):
        if config is None:
            config = SystemConfig.scaled().cxl_link
        return CxlLink(config, stats)

    def test_transfer_rejects_non_positive_sizes(self):
        link = self._link()
        for size in (0, -64):
            with pytest.raises(ValueError, match="must be positive"):
                link.transfer(TO_DEVICE, 0.0, size)
            with pytest.raises(ValueError, match="must be positive"):
                link.try_transfer(TO_DEVICE, 0.0, size)

    def test_reset_clears_busy_and_stats(self):
        registry = StatRegistry()
        link = self._link(stats=registry.scoped("link0"))
        link.transfer(TO_DEVICE, 0.0, 4096)
        assert registry.get("link0.messages") == 1
        assert link.occupancy_until(TO_DEVICE) > 0
        link.reset()
        assert link.occupancy_until(TO_DEVICE) == 0.0
        # Counters are preresolved cells, so the keys survive a reset with
        # their values zeroed (rather than vanishing from the registry).
        assert registry.get("link0.messages") == 0.0
        assert registry.get("link0.bytes") == 0.0
        link.transfer(TO_DEVICE, 0.0, 4096)
        assert registry.get("link0.messages") == 1

    def _faulty_link(self, spec: str, host: int = 0):
        config = SystemConfig.scaled()
        plan = FaultPlan.from_config(
            FaultConfig.parse(spec), config.num_hosts, 4096
        )
        injector = FaultInjector(plan)
        link = CxlLink(config.cxl_link)
        link.attach_faults(injector.link(host))
        return link, injector, config.cxl_link

    def test_retries_inflate_latency_and_count(self):
        clean = self._link()
        base = clean.transfer(TO_DEVICE, 0.0, units.CACHE_LINE)
        link, injector, _ = self._faulty_link(
            "none:transfer-error-rate=0.5,seed=11"
        )
        total_faulty = 0.0
        for i in range(200):
            total_faulty += link.transfer(
                TO_DEVICE, link.occupancy_until(TO_DEVICE), units.CACHE_LINE
            )
        counters = injector.counters
        assert counters.injected_errors > 0
        assert counters.link_retries > 0
        assert total_faulty > 200 * base

    def test_demand_giveup_absorbs_penalty_without_raising(self):
        link, injector, link_cfg = self._faulty_link(
            "none:transfer-error-rate=0.9,max-attempts=2,seed=1"
        )
        faults = injector.link(0)
        clean = self._link()
        serialization = units.transfer_ns(
            units.CACHE_LINE, link_cfg.bandwidth_gbs
        )
        counters = injector.counters
        for _ in range(50):
            retries, giveups = counters.link_retries, counters.link_giveups
            # Starting at the link's occupancy, no call queues.
            got = link.transfer(  # must not raise
                TO_DEVICE, link.occupancy_until(TO_DEVICE), units.CACHE_LINE
            )
            expected = clean.transfer(
                TO_DEVICE, clean.occupancy_until(TO_DEVICE), units.CACHE_LINE
            )
            for k in range(counters.link_retries - retries):
                expected += faults.retry_backoff_ns * 2 ** k + serialization
            if counters.link_giveups > giveups:
                expected += faults.giveup_penalty_ns
            assert got == expected
        assert counters.link_giveups > 0
        assert counters.recovery_ns > 0

    def test_faultable_giveup_raises(self):
        link, injector, _ = self._faulty_link(
            "none:transfer-error-rate=0.9,max-attempts=2,seed=1"
        )
        with pytest.raises(LinkTransferError):
            for _ in range(50):
                link.try_transfer(TO_DEVICE, 0.0, units.CACHE_LINE)
        assert injector.counters.link_giveups > 0

    def test_degrade_window_multiplies_latency_and_serialization(self):
        link, _, link_cfg = self._faulty_link(
            "none:degrade-start-ns=0,degrade-end-ns=1e9,"
            "degrade-latency-x=4,degrade-bandwidth-x=2"
        )
        clean = self._link()
        base = clean.transfer(TO_DEVICE, 0.0, units.PAGE_SIZE)
        degraded = link.transfer(TO_DEVICE, 0.0, units.PAGE_SIZE)
        serialization = units.transfer_ns(
            units.PAGE_SIZE, link_cfg.bandwidth_gbs
        )
        expected = (
            4 * link_cfg.latency_ns + 2 * serialization
        )
        assert degraded == pytest.approx(expected)
        assert degraded > base
        # Outside the window the link behaves nominally again.
        after = link.transfer(TO_DEVICE, 2e9, units.PAGE_SIZE)
        assert after == pytest.approx(base)


# ======================================================================
# Engine trace validation (satellite)
# ======================================================================
class TestEngineValidation:
    def _system(self, config):
        return MultiHostSystem(config, make_scheme("native"))

    def test_negative_gap_rejected(self, scaled_config):
        trace = WorkloadTrace(
            name="bad-gap",
            num_hosts=scaled_config.num_hosts,
            streams=[[(10.0, 0, 0, 0), (-1.0, 64, 0, 0)]]
            + [[] for _ in range(scaled_config.num_hosts - 1)],
            footprint_bytes=4096,
        )
        with pytest.raises(ValueError, match="negative inter-access gap"):
            SimulationEngine(self._system(scaled_config), trace)

    def test_empty_trace_rejected(self, scaled_config):
        trace = WorkloadTrace(
            name="empty",
            num_hosts=scaled_config.num_hosts,
            streams=[[] for _ in range(scaled_config.num_hosts)],
            footprint_bytes=4096,
        )
        with pytest.raises(ValueError, match="no accesses"):
            SimulationEngine(self._system(scaled_config), trace)

    def test_partially_empty_trace_allowed(self, scaled_config):
        trace = WorkloadTrace(
            name="one-host",
            num_hosts=scaled_config.num_hosts,
            streams=[[(10.0, 64, 0, 0)]]
            + [[] for _ in range(scaled_config.num_hosts - 1)],
            footprint_bytes=4096,
        )
        result = SimulationEngine(self._system(scaled_config), trace).run()
        assert result.accesses == 1


# ======================================================================
# Zero-cost-when-idle: byte-identical results (acceptance criterion)
# ======================================================================
class TestZeroCostWhenIdle:
    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    def test_idle_plan_is_byte_identical(self, scheme, scaled_config,
                                         tiny_pr_trace):
        plain = simulate(tiny_pr_trace, make_scheme(scheme), scaled_config)
        idle = simulate(
            tiny_pr_trace,
            make_scheme(scheme),
            _with_faults(scaled_config, "none"),
        )
        assert plain == idle  # full dataclass equality, stats included

    def test_idle_plan_identical_on_second_workload(self, scaled_config,
                                                    tiny_ycsb_trace):
        for scheme in ("pipm", "nomad"):
            plain = simulate(tiny_ycsb_trace, make_scheme(scheme),
                             scaled_config)
            idle = simulate(
                tiny_ycsb_trace,
                make_scheme(scheme),
                _with_faults(scaled_config, "none"),
            )
            assert plain == idle


# ======================================================================
# Seeded fault runs: reproducibility + the degraded-link scenario
# ======================================================================
class TestFaultedRuns:
    def test_seeded_runs_reproduce_bit_for_bit(self, scaled_config,
                                               tiny_pr_trace):
        config = _with_faults(
            scaled_config, "flaky:transfer-error-rate=0.05,seed=9"
        )
        first = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        second = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        assert first == second
        assert first.fault_stats  # something actually fired

    def test_different_seed_changes_fault_draws(self, scaled_config,
                                                tiny_pr_trace):
        base = "flaky:transfer-error-rate=0.05,seed={}"
        a = simulate(tiny_pr_trace, make_scheme("pipm"),
                     _with_faults(scaled_config, base.format(9)))
        b = simulate(tiny_pr_trace, make_scheme("pipm"),
                     _with_faults(scaled_config, base.format(10)))
        assert a.fault_stats != b.fault_stats

    def test_degraded_link_scenario(self, scaled_config, tiny_pr_trace):
        """The ISSUE acceptance scenario: completes, retries, clean audit."""
        config = _with_faults(
            scaled_config,
            "degraded:seed=7,watchdog-period-ns=100000,"
            "watchdog-mode=fail-fast",
        )
        system = MultiHostSystem(
            config, make_scheme("pipm"),
            footprint_pages=max(1, tiny_pr_trace.footprint_bytes // 4096),
        )
        result = SimulationEngine(system, tiny_pr_trace).run()  # no deadlock
        assert result.stats["fault_link_retries"] > 0
        assert system.watchdog.ok  # fail-fast would have raised
        assert system.watchdog.audits >= 1
        # Degradation slows the run down but never wedges it.
        clean = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        assert result.exec_time_ns > clean.exec_time_ns

    def test_aborts_roll_back_and_stay_consistent(self, scaled_config,
                                                  tiny_pr_trace, monkeypatch):
        # A skipped rollback leaves a state the watchdog accepts (the
        # migrate-back or revocation simply stands), so compare the
        # page's remap entries with the transaction's snapshot after
        # every abort.
        restored = []
        abort = MultiHostSystem._abort_migration

        def checked(system, txn, exc):
            abort(system, txn, exc)
            engine = system.engine
            gentry = engine.global_table.peek(txn.page)
            local = engine.local_tables[txn.owner].lookup(txn.page)
            restored.append((
                None if gentry is None else (
                    gentry.current_host, gentry.candidate_host, gentry.counter
                ),
                None if local is None else (
                    local.local_pfn, local.counter, local.migrated_lines
                ),
            ) == (txn.global_entry, txn.local_entry))

        monkeypatch.setattr(MultiHostSystem, "_abort_migration", checked)
        config = _with_faults(
            scaled_config,
            "flaky:transfer-error-rate=0.4,max-attempts=3,seed=3,"
            "watchdog-mode=fail-fast,watchdog-period-ns=50000",
        )
        result = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        stats = result.fault_stats
        assert stats.get("fault_migration_aborts", 0) > 0
        assert stats.get("fault_rollbacks", 0) == stats.get(
            "fault_migration_aborts"
        )
        assert len(restored) == stats["fault_migration_aborts"]
        assert all(restored)
        assert "watchdog_violations" not in result.stats

    def test_kernel_scheme_aborts_under_faults(self, scaled_config,
                                               tiny_pr_trace):
        config = _with_faults(
            scaled_config,
            "flaky:transfer-error-rate=0.4,max-attempts=3,seed=3,"
            "watchdog-mode=fail-fast,watchdog-period-ns=50000",
        )
        result = simulate(tiny_pr_trace, make_scheme("nomad"), config)
        assert result.fault_stats.get("fault_migration_aborts", 0) > 0
        assert "watchdog_violations" not in result.stats

    def test_host_stalls_charge_stall_time(self, scaled_config,
                                           tiny_pr_trace):
        config = _with_faults(
            scaled_config,
            "none:stall-period-ns=50000,stall-duration-ns=5000",
        )
        result = simulate(tiny_pr_trace, make_scheme("native"), config)
        clean = simulate(tiny_pr_trace, make_scheme("native"), scaled_config)
        assert result.stats["fault_host_stall_ns"] > 0
        assert result.exec_time_ns > clean.exec_time_ns

    def test_poisoned_lines_recover(self, scaled_config, tiny_pr_trace):
        config = _with_faults(
            scaled_config,
            "none:poison-count=64,poison-period-ns=2000,seed=2",
        )
        result = simulate(tiny_pr_trace, make_scheme("pipm"), config)
        assert result.stats["fault_poison_recoveries"] > 0
        assert result.stats["fault_recovery_ns"] > 0


# ======================================================================
# Engine-level transactional rollback (bit-for-bit)
# ======================================================================
class TestMigrationTxn:
    def _engine(self):
        config = SystemConfig.scaled()
        system = MultiHostSystem(config, make_scheme("pipm"))
        return system.engine

    def _snapshot(self, engine, owner, page):
        global_entry = engine.global_table.peek(page)
        local = engine.local_tables[owner].lookup(page)
        return (
            None if global_entry is None else (
                global_entry.current_host,
                global_entry.candidate_host,
                global_entry.counter,
            ),
            None if local is None else (
                local.local_pfn, local.counter, local.migrated_lines
            ),
            engine.frames[owner].in_use,
            engine.local_caches[owner].contains(page),
            dataclasses.replace(engine.counters),
        )

    def test_rollback_restores_revocation_bit_for_bit(self):
        engine = self._engine()
        owner, page = 1, 5
        assert engine.request_partial_migration(page, owner)
        entry = engine.local_tables[owner].lookup(page)
        for line in (0, 7, 63):
            entry.set_line(line)

        # Drive inter-host accesses until one revokes, transactionally.
        revoked = None
        for _ in range(engine.config.migration_threshold + 1):
            before = self._snapshot(engine, owner, page)
            txn = engine.begin_txn(owner, page)
            _, revoked = engine.inter_host_access(owner, page, 7)
            if revoked is not None:
                break
        assert revoked is not None  # the revocation fired
        assert engine.local_tables[owner].lookup(page) is None

        engine.rollback(txn)
        after = self._snapshot(engine, owner, page)
        assert after[:4] == before[:4]
        assert after[4] == before[4]  # counters dataclass equality
        restored = engine.local_tables[owner].lookup(page)
        assert restored.migrated_lines == before[1][2]
        assert restored.local_pfn == before[1][0]

    def test_rollback_of_migrate_back_only(self):
        engine = self._engine()
        owner, page = 0, 3
        assert engine.request_partial_migration(page, owner)
        entry = engine.local_tables[owner].lookup(page)
        entry.set_line(12)
        before = self._snapshot(engine, owner, page)
        txn = engine.begin_txn(owner, page)
        migrated, revoked = engine.inter_host_access(owner, page, 12)
        assert migrated and revoked is None
        assert not entry.line_migrated(12)  # the line moved back
        engine.rollback(txn)
        assert self._snapshot(engine, owner, page) == before


# ======================================================================
# Invariant watchdog
# ======================================================================
class TestWatchdog:
    def _pipm_system(self, spec="none"):
        config = _with_faults(SystemConfig.scaled(), spec)
        return MultiHostSystem(config, make_scheme("pipm"))

    def test_clean_system_audits_clean(self):
        system = self._pipm_system()
        assert system.watchdog.audit(0.0) == []
        assert system.watchdog.ok
        assert "PASS" in system.watchdog.summary()

    def test_detects_bogus_global_host(self):
        system = self._pipm_system()
        engine = system.engine
        assert engine.request_partial_migration(3, 0)
        engine.global_table.entry(3).current_host = 77  # corrupt
        violations = system.watchdog.audit(0.0)
        assert any(v.kind == "remap" for v in violations)
        assert not system.watchdog.ok

    def test_detects_leaked_frame(self):
        system = self._pipm_system()
        engine = system.engine
        assert engine.request_partial_migration(4, 1)
        engine.local_tables[1].remove(4)  # drop the entry, leak the frame
        violations = system.watchdog.audit(0.0)
        assert any(v.kind == "frames" for v in violations)

    def test_fail_fast_raises(self):
        system = self._pipm_system()
        engine = system.engine
        assert engine.request_partial_migration(3, 0)
        engine.global_table.entry(3).current_host = 77
        watchdog = InvariantWatchdog(system, mode="fail-fast")
        with pytest.raises(WatchdogError, match="violation"):
            watchdog.audit(0.0)

    def test_rejects_unknown_mode(self):
        system = self._pipm_system()
        with pytest.raises(ValueError, match="watchdog mode"):
            InvariantWatchdog(system, mode="shrug")

    def test_periodic_audits_run_during_simulation(self, scaled_config,
                                                   tiny_pr_trace):
        config = _with_faults(scaled_config, "none:watchdog-period-ns=10000")
        system = MultiHostSystem(config, make_scheme("pipm"))
        SimulationEngine(system, tiny_pr_trace).run()
        assert system.watchdog.audits > 1  # periodic + final
        assert system.watchdog.ok


# ======================================================================
# A botched rollback vs the watchdog
# ======================================================================
@pytest.fixture
def botched_rollback(monkeypatch):
    """Make the first rollback that carries a local-side snapshot drop it.

    The rollback then restores the global remap entry but not the owner's
    local entry and frame, leaving the page globally mapped to a host
    whose local table no longer has it.  Returns the botched txns.
    """
    rollback = PipmEngine.rollback
    botched = []

    def botching(engine, txn):
        if not botched and txn.local_entry is not None:
            botched.append(txn)
            txn = dataclasses.replace(
                txn, local_entry=None, cache_resident=False
            )
        rollback(engine, txn)

    monkeypatch.setattr(PipmEngine, "rollback", botching)
    return botched


class TestBotchedRollback:
    """The cross-table inconsistency a botched migration-abort rollback
    leaves is exactly what the watchdog's remap audit exists to catch."""

    SPEC = ("flaky:transfer-error-rate=0.4,max-attempts=3,seed=3,"
            "watchdog-period-ns=20000,watchdog-mode={mode}")

    def test_fail_fast_catches_botched_rollback(self, botched_rollback,
                                                scaled_config, tiny_pr_trace):
        config = _with_faults(scaled_config, self.SPEC.format(mode="fail-fast"))
        system = MultiHostSystem(config, make_scheme("pipm"))
        with pytest.raises(WatchdogError) as excinfo:
            SimulationEngine(system, tiny_pr_trace).run()
        assert len(botched_rollback) == 1
        assert "remap" in excinfo.value.kinds

    def test_log_mode_records_violation_and_stat(self, botched_rollback,
                                                 scaled_config,
                                                 tiny_pr_trace):
        config = _with_faults(scaled_config, self.SPEC.format(mode="log"))
        system = MultiHostSystem(config, make_scheme("pipm"))
        SimulationEngine(system, tiny_pr_trace).run()  # must not raise
        assert len(botched_rollback) == 1
        assert not system.watchdog.ok
        assert any(v.kind == "remap" for v in system.watchdog.violations)
        assert system.fault_stats()["watchdog_violations"] >= 1.0
