"""Fast lane on/off equivalence.

The engine's contract is *byte identity*: for any trace, scheme, and
configuration, a run with every host's fast lane on must match the
reference run with it off (``fast_lane=False``, every access through the
serialized slow path) — same ``SimulationResult.to_record()``, same
floats, same counters, same per-host breakdowns.  The lane defers integer
counters and folds them in at the end of the run.  Most of those folds
land in counters that neither the record nor the registry holds: the
hits, misses and evictions of the TLBs, L1s, LLCs and remap caches, and
the device directory's lookup counts.  So every comparison below reads
those off the system after the run, next to the record and the full
``StatRegistry.snapshot()``; a lost fold shows up in one of the three.

The hand-picked cases below pin the golden core cases plus the
configurations that fence the lane or change what it runs (fault plans,
watchdog audits, interval schemes, the ``local-only`` scheme — the only
one whose accesses take the lane's host-private flow); the hypothesis
fuzz draws hosts, fabric topology, fault plan, scheme and workload at
random.  Parity cannot see a lane that silently stands down, so a floor
on the lane's share of accesses is pinned too.

Every fault plan arms the invariant watchdog, so each comparison also
requires the reference run to end with no ``watchdog_violations``: the
fuzz is the fault fuzzer, and a recovery that leaves the system
inconsistent fails it whether or not the lane is involved.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import SystemConfig, units
from repro.config import FaultConfig
from repro.mem.cxl_link import CxlLink
from repro.mem.dram import DramPool
from repro.mem.fabric import SwitchedPath
from repro.pipm.remap_cache import InfiniteRemapCache
from repro.policies import SCHEME_CLASSES, make_scheme
from repro.sim import engine as engine_module
from repro.sim.engine import SimulationEngine, _make_flat_path, simulate
from repro.sim.system import MultiHostSystem
from repro.workloads.registry import generate
from repro.workloads.trace import WorkloadScale

from .test_golden_determinism import CORE_CASES


def _canon(result) -> str:
    return json.dumps(result.to_record(), sort_keys=True)


def _trace(workload: str, config: SystemConfig, scale=None):
    return generate(
        workload,
        num_hosts=config.num_hosts,
        scale=scale or WorkloadScale.tiny(),
        cores_per_host=config.cores_per_host,
    )


def _cache_counters(system: MultiHostSystem) -> dict:
    """The counters the lane folds into cache objects, by cache."""
    counters = {}
    for host in system.hosts:
        for cache in (host.tlb._cache, *host.l1s, host.llc):
            counters[cache.name] = (cache.hits, cache.misses, cache.evictions)
    if system.engine is not None:
        for remap in (system.engine.global_cache, *system.engine.local_caches):
            evictions = (
                None if isinstance(remap, InfiniteRemapCache)
                else remap._cache.evictions
            )
            counters[remap.name] = (remap.hits, remap.misses, evictions)
    directory = system.device_dir
    counters["device_dir"] = (
        directory.lookups, directory.hits, directory.capacity_evictions,
    )
    return counters


def _engine(trace, scheme: str, config: SystemConfig, fast_lane=True):
    """The engine :func:`simulate` would build for ``trace``."""
    system = MultiHostSystem(
        config, make_scheme(scheme), workload_mlp=trace.mlp,
        footprint_pages=max(1, trace.footprint_bytes // 4096),
    )
    return SimulationEngine(system, trace, fast_lane=fast_lane)


def _observe(trace, scheme: str, config: SystemConfig, fast_lane: bool):
    """Run ``trace`` as :func:`simulate` does; everything the lane touches."""
    engine = _engine(trace, scheme, config, fast_lane)
    result = engine.run()
    system = engine.system
    return {
        "to_record()": _canon(result),
        "StatRegistry.snapshot()": json.dumps(
            system.stats.snapshot(), sort_keys=True
        ),
        "cache counters": _cache_counters(system),
    }


def _assert_lanes_agree(trace, scheme: str, config: SystemConfig):
    reference = _observe(trace, scheme, config, fast_lane=False)
    stats = json.loads(reference["to_record()"])["stats"]
    assert "watchdog_violations" not in stats, (
        f"{stats['watchdog_violations']:.0f} watchdog violations"
    )
    laned = _observe(trace, scheme, config, fast_lane=True)
    for what, expected in reference.items():
        assert laned[what] == expected, f"{what} differs"


class TestBackendParity:
    # local-only is the one scheme whose misses take the lane's
    # host-private flow: no workload issues a host-private address.
    @pytest.mark.parametrize(
        "workload,scheme", [*CORE_CASES, ("pr", "local-only")]
    )
    def test_profile_cases_identical(self, workload, scheme):
        config = SystemConfig.scaled()
        _assert_lanes_agree(_trace(workload, config), scheme, config)

    @pytest.mark.parametrize("scheme", ["native", "pipm"])
    def test_fault_plan_identical(self, scheme):
        # The lane runs under storm: transfer errors and a degrade window
        # on every link, so every miss goes through the faulted link's
        # own methods and every PIPM vote meets the governor, plus the
        # stall-window and poison-arrival fences.
        config = dataclasses.replace(
            SystemConfig.scaled(), faults=FaultConfig.parse("storm:seed=5")
        )
        _assert_lanes_agree(_trace("pr", config), scheme, config)

    def test_watchdog_audits_identical(self):
        config = dataclasses.replace(
            SystemConfig.scaled(),
            faults=FaultConfig.parse("none:watchdog-period-ns=5e5"),
        )
        _assert_lanes_agree(_trace("pr", config), "pipm", config)

    def test_interval_scheme_identical(self):
        # memtis ticks on an interval: the lane must stop at exactly the
        # tick boundaries the slow path sees.
        config = SystemConfig.scaled()
        _assert_lanes_agree(_trace("ycsb", config), "memtis", config)

    @pytest.mark.parametrize("workload,scheme", CORE_CASES)
    def test_dram_interleave_follows_the_pool(self, workload, scheme,
                                              monkeypatch):
        # The lane's inline DRAM access must pick the channel the pool
        # picks: interleave every pool at 256 B instead of a page.
        init = DramPool.__init__

        def fine_interleave(pool, *args, **kwargs):
            init(pool, *args, **kwargs)
            pool._interleave_shift = units.LINE_SHIFT + 2

        monkeypatch.setattr(DramPool, "__init__", fine_interleave)
        config = SystemConfig.scaled()
        _assert_lanes_agree(_trace(workload, config), scheme, config)


class TestBackendSelection:
    def test_simulate_passes_fast_lane(self, tiny_pr_trace, scaled_config,
                                       monkeypatch):
        built = []

        def counting(system, host_id, stall_by_service):
            built.append(host_id)
            return _make_flat_path(system, host_id, stall_by_service)

        monkeypatch.setattr(engine_module, "_make_flat_path", counting)
        off = simulate(tiny_pr_trace, make_scheme("native"), scaled_config,
                       fast_lane=False)
        assert built == []
        on = simulate(tiny_pr_trace, make_scheme("native"), scaled_config)
        assert built == list(range(scaled_config.num_hosts))
        assert on.accesses == off.accesses == tiny_pr_trace.total_accesses


# ----------------------------------------------------------------------
# Where the lane runs
# ----------------------------------------------------------------------
def _system(config, scheme="pipm", **kwargs):
    return MultiHostSystem(config, make_scheme(scheme), **kwargs)


class TestLaneEligibility:
    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig.scaled(),
            SystemConfig.rack(8, "single-switch"),
            SystemConfig.rack(16, "two-tier:hosts-per-leaf=4"),
            SystemConfig.rack(8, "single-switch").replace(
                faults=FaultConfig.parse("switchdown")
            ),
            SystemConfig.scaled().replace(
                faults=FaultConfig.parse("hostdown-rejoin")
            ),
            *(
                SystemConfig.scaled().replace(
                    faults=FaultConfig.parse(preset)
                )
                for preset in ("flaky", "degraded", "storm")
            ),
            SystemConfig.rack(8, "single-switch").replace(
                faults=FaultConfig.parse("storm")
            ),
        ],
        ids=["flat", "single-switch", "two-tier", "switchdown", "crash-only",
             "flaky", "degraded", "storm", "storm-switched"],
    )
    @pytest.mark.parametrize("scheme", ["native", "memtis", "pipm"])
    def test_lane_built(self, config, scheme):
        system = _system(config, scheme)
        for host_id in range(config.num_hosts):
            assert _make_flat_path(system, host_id, [0.0] * 7) is not None

    @pytest.mark.parametrize(
        "scheme,kwargs",
        [
            ("hw-static", {}),
            ("pipm", {"infinite_global_remap_cache": True}),
            ("pipm", {"infinite_local_remap_cache": True}),
        ],
        ids=["hw-static", "infinite-global-cache", "infinite-local-cache"],
    )
    def test_no_lane(self, scheme, kwargs):
        system = _system(SystemConfig.scaled(), scheme, **kwargs)
        assert _make_flat_path(system, 0, [0.0] * 7) is None


#: The fabric golden's flat fault case: transfer errors plus a crash and a
#: rejoin that both land inside a tiny run.
_CRASH_WITH_ERRORS = (
    "hostdown-rejoin:transfer-error-rate=0.001,"
    "crash-at-ns=60000,crash-rejoin-ns=110000"
)


class TestLaneShare:
    # A lane that stands down moves no output byte, so no parity test can
    # see it; pin the share of accesses the lanes serve instead.  The
    # ycsb/pipm runs read 0.94-0.95 (0.90-0.92 when every inter-host
    # access bailed; degraded, whose governor holds promotions, reads
    # 0.947 either way), pr/native 0.99.
    @pytest.mark.parametrize(
        "workload,scheme,plan,floor",
        [
            ("ycsb", "pipm", None, 0.93),
            ("ycsb", "pipm", _CRASH_WITH_ERRORS, 0.93),
            ("ycsb", "pipm", "flaky", 0.93),
            ("ycsb", "pipm", "degraded", 0.85),
            ("pr", "native", None, 0.5),
        ],
        ids=["faults-off", "crash-errors", "flaky", "degraded", "pr-native"],
    )
    def test_lane_share_floor(self, workload, scheme, plan, floor):
        config = SystemConfig.scaled(num_hosts=4)
        if plan is not None:
            config = config.replace(faults=FaultConfig.parse(plan))
        engine = _engine(_trace(workload, config), scheme, config)
        result = engine.run()
        assert engine.lane_accesses / result.accesses >= floor

    @pytest.mark.parametrize(
        "path_type,config",
        [
            (SwitchedPath, SystemConfig.rack(16, "two-tier")),
            (CxlLink, SystemConfig.scaled(num_hosts=4).replace(
                faults=FaultConfig.parse("flaky")
            )),
        ],
        ids=["switched-rack", "faulted-link"],
    )
    def test_lane_folds_paths(self, path_type, config, monkeypatch):
        # A lane that calls the path's round_trip instead of flying the
        # hops inline moves no output byte either.  The slow path makes
        # at most two round trips per access (its own and a dirty
        # owner's); a folding lane makes none.  Calling lanes made about
        # 52,400 on the rack against a bound of about 16,900, and 106
        # times the slow-path accesses over the flaky links (1.8 folded).
        calls = 0
        round_trip = path_type.round_trip

        def counted(path, *args):
            nonlocal calls
            calls += 1
            return round_trip(path, *args)

        monkeypatch.setattr(path_type, "round_trip", counted)
        engine = _engine(_trace("pr", config), "native", config)
        result = engine.run()
        assert calls <= 2 * (result.accesses - engine.lane_accesses)


class TestLaneBail:
    # A lane that has served an access and then stops on one it cannot
    # serve still holds the heap turn, so the slow path takes that access
    # at once.  Sending the host back through the heap made its next turn
    # probe the same access again first: 1,309 repeated flat calls here
    # for memtis, 1,637 for pipm.
    @pytest.mark.parametrize("scheme", ["memtis", "pipm"])
    def test_bailed_access_probed_once(self, scheme, monkeypatch):
        bails = repeats = 0

        def probing(system, host_id, stall_by_service):
            made = _make_flat_path(system, host_id, stall_by_service)
            if made is None:
                return None
            flat, flush = made
            last = None

            def probed(l1, cache_set, addr, line, is_write, now):
                nonlocal bails, repeats, last
                repeats += (addr, now) == last
                last = (addr, now)
                out = flat(l1, cache_set, addr, line, is_write, now)
                bails += out is None
                return out

            return probed, flush

        monkeypatch.setattr(engine_module, "_make_flat_path", probing)
        config = SystemConfig.scaled()
        _engine(_trace("ycsb", config), scheme, config).run()
        assert bails > 0
        assert repeats == 0


# ----------------------------------------------------------------------
# Differential fuzz: lane on == lane off, records, registry and caches
# ----------------------------------------------------------------------
TOPOLOGIES = (
    "flat",
    "single-switch",
    "two-tier:hosts-per-leaf=2",
    "two-tier:hosts-per-leaf=4",
    "two-tier:hosts-per-leaf=8",
)
#: Fault plans the fuzz draws from; the lane runs under every one.
#: ``stalls`` (pause windows plus poisoned lines, no transfer faults)
#: exercises the stall and poison fences; ``degrade`` opens and closes a
#: degraded window mid-run, so the governor hold it arms starts and ends
#: while other hosts' lanes keep running; ``crash-errors`` is the
#: benchmark's plan (a crash and rejoin, transfer errors, watchdog
#: audits); ``chaos`` is ``storm`` plus a crash and rejoin, a governor
#: hold and watchdog audits, every fault source in one run;
#: ``aborts`` is ``crash-errors`` with transfer errors at 0.3 and two
#: attempts, so migrations abort and roll back and demand transfers give
#: up; ``switchdown`` needs a switched fabric.
FAULT_KINDS = (
    "none", "flaky", "storm", "hostdown", "hostdown-rejoin", "switchdown",
    "watchdog", "stalls", "degrade", "crash-errors", "aborts", "chaos",
)
SCHEMES = tuple(SCHEME_CLASSES)
WORKLOADS = ("pr", "ycsb", "tpcc")


@dataclasses.dataclass(frozen=True)
class LaneCase:
    hosts: int
    topology: str
    faults: str
    scheme: str
    workload: str
    accesses_per_host: int
    seed: int
    #: Where a crash, degrade or switchdown window opens and closes, as
    #: fractions of the fault-free run's length.
    opens_at: float
    closes_at: float
    #: Host that crashes or runs degraded / switch that goes down (taken
    #: modulo the count).
    victim: int

    def base_config(self) -> SystemConfig:
        if self.topology == "flat":
            return SystemConfig.scaled(num_hosts=self.hosts)
        return SystemConfig.rack(self.hosts, self.topology)

    def build(self):
        """The case's trace and config.  Fault epochs are placed inside
        the run: fractions of the fault-free run's simulated length."""
        base = self.base_config()
        trace = _trace(
            self.workload, base,
            WorkloadScale(
                accesses_per_host=self.accesses_per_host,
                footprint_bytes=512 * units.KB,
                seed=self.seed,
            ),
        )
        span_ns = simulate(trace, make_scheme(self.scheme), base).exec_time_ns
        spec = self.fault_spec(base, span_ns)
        if spec is None:
            return trace, base
        return trace, base.replace(faults=FaultConfig.parse(spec))

    def fault_spec(self, config: SystemConfig, span_ns: float):
        opens = self.opens_at * span_ns
        closes = self.closes_at * span_ns
        host = self.victim % self.hosts
        seed = f"seed={self.seed}"
        if self.faults == "none":
            return None
        if self.faults == "flaky":
            return f"flaky:{seed}"
        storm = (
            f"storm:{seed},stall-period-ns={span_ns / 3},"
            f"stall-duration-ns={span_ns / 30},"
            f"poison-period-ns={span_ns / 10}"
        )
        if self.faults == "storm":
            return storm
        if self.faults == "chaos":
            return (
                f"{storm},crash-host={host},crash-at-ns={opens},"
                f"crash-rejoin-ns={closes},governor-hold-ns={span_ns / 10},"
                f"watchdog-period-ns={span_ns / 4}"
            )
        if self.faults == "hostdown":
            return f"hostdown:{seed},crash-host={host},crash-at-ns={opens}"
        if self.faults == "hostdown-rejoin":
            return (
                f"hostdown-rejoin:{seed},crash-host={host},"
                f"crash-at-ns={opens},crash-rejoin-ns={closes}"
            )
        errors = {
            "crash-errors": "transfer-error-rate=0.001",
            "aborts": "transfer-error-rate=0.3,max-attempts=2",
        }
        if self.faults in errors:
            return (
                f"hostdown-rejoin:{seed},crash-host={host},"
                f"crash-at-ns={opens},crash-rejoin-ns={closes},"
                f"{errors[self.faults]},watchdog-period-ns={span_ns / 4}"
            )
        if self.faults == "degrade":
            # One host's link, or (odd victim) it and its neighbour's.
            degraded = {host, (host + self.victim % 2) % self.hosts}
            return (
                f"degraded:{seed},degrade-start-ns={opens},"
                f"degrade-end-ns={closes},"
                f"degrade-hosts={'+'.join(map(str, sorted(degraded)))},"
                f"governor-hold-ns={span_ns / 10}"
            )
        if self.faults == "switchdown":
            switch = self.victim % config.fabric.num_switches(self.hosts)
            return (
                f"switchdown:{seed},switch-down={switch},"
                f"switch-down-start-ns={opens},switch-down-end-ns={closes}"
            )
        if self.faults == "watchdog":
            return f"none:{seed},watchdog-period-ns={span_ns / 4}"
        assert self.faults == "stalls"
        return (
            f"none:{seed},stall-period-ns={span_ns / 3},"
            f"stall-duration-ns={span_ns / 30},poison-count=8,"
            f"poison-period-ns={span_ns / 10}"
        )


@st.composite
def lane_cases(draw):
    topology = draw(st.sampled_from(TOPOLOGIES))
    kinds = [
        kind for kind in FAULT_KINDS
        if topology != "flat" or kind != "switchdown"
    ]
    opens_at = draw(st.floats(0.1, 0.5))
    return LaneCase(
        hosts=draw(st.integers(2, 32)),
        topology=topology,
        faults=draw(st.sampled_from(kinds)),
        scheme=draw(st.sampled_from(SCHEMES)),
        workload=draw(st.sampled_from(WORKLOADS)),
        accesses_per_host=draw(st.integers(1000, 2000)),
        seed=draw(st.integers(0, 2**16)),
        opens_at=opens_at,
        closes_at=draw(st.floats(opens_at + 0.1, 0.9)),
        victim=draw(st.integers(0, 63)),
    )


_RACK_32 = dict(
    hosts=32, scheme="pipm", workload="pr", accesses_per_host=1500,
    seed=7, opens_at=0.3, closes_at=0.7, victim=5,
)
#: Every fault source at once, so the full composition runs whatever the
#: fuzz draws.
_CHAOS_4H = LaneCase(
    hosts=4, topology="flat", faults="chaos", scheme="pipm", workload="pr",
    accesses_per_host=2000, seed=7, opens_at=0.3, closes_at=0.6, victim=1,
)
#: Migration aborts and their rollbacks, give-ups on demand traffic, and
#: the migrate-backs the lane's inter-host flow leaves to the slow path;
#: long enough for lines to migrate and be pulled back.
_ABORTS_4H = LaneCase(
    hosts=4, topology="flat", faults="aborts", scheme="pipm", workload="ycsb",
    accesses_per_host=8000, seed=2, opens_at=0.3, closes_at=0.6, victim=1,
)


class TestLaneFuzz:
    @settings(
        max_examples=30,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=lane_cases())
    @example(case=LaneCase(topology="single-switch", faults="switchdown",
                           **_RACK_32))
    @example(case=LaneCase(topology="two-tier:hosts-per-leaf=8",
                           faults="hostdown-rejoin", **_RACK_32))
    @example(case=LaneCase(
        hosts=6, topology="flat", faults="stalls", scheme="pipm",
        workload="ycsb", accesses_per_host=2000, seed=11, opens_at=0.2,
        closes_at=0.6, victim=1,
    ))
    @example(case=LaneCase(
        hosts=8, topology="two-tier:hosts-per-leaf=2", faults="hostdown",
        scheme="memtis", workload="tpcc", accesses_per_host=2000, seed=3,
        opens_at=0.4, closes_at=0.8, victim=6,
    ))
    # A leaf switch down: its hosts' paths call round_trip/transfer while
    # every other host folds, and all of them share the spine's port.
    @example(case=LaneCase(
        hosts=16, topology="two-tier:hosts-per-leaf=4", faults="switchdown",
        scheme="native", workload="pr", accesses_per_host=1500, seed=7,
        opens_at=0.2, closes_at=0.8, victim=1,
    ))
    # Shaped like the benchmark's faults-ycsb-4h.
    @example(case=LaneCase(
        hosts=4, topology="flat", faults="crash-errors", scheme="pipm",
        workload="ycsb", accesses_per_host=2000, seed=7, opens_at=0.3,
        closes_at=0.6, victim=1,
    ))
    @example(case=_ABORTS_4H)
    @example(case=_CHAOS_4H)
    def test_lane_on_matches_lane_off(self, case):
        trace, config = case.build()
        _assert_lanes_agree(trace, case.scheme, config)

    def test_chaos_fires_every_fault_source(self):
        # A source that stops firing moves no parity byte either.
        trace, config = _CHAOS_4H.build()
        engine = _engine(trace, _CHAOS_4H.scheme, config)
        stats = engine.run().stats
        for fired in (
            "fault_injected_errors", "fault_degraded_skips",
            "fault_host_stall_ns", "fault_poison_recoveries",
            "fault_host_crashes", "fault_host_rejoins",
            "fault_governor_skips",
        ):
            assert stats.get(fired), fired
        assert engine.system.watchdog.audits > 1  # periodic + post-run

    def test_aborts_give_up_and_roll_back(self):
        # The aborts example checks no rollback unless its run aborts.
        trace, config = _ABORTS_4H.build()
        stats = _engine(trace, _ABORTS_4H.scheme, config).run().stats
        for fired in (
            "fault_link_giveups", "fault_migration_aborts",
            "pipm_migrate_backs", "fault_host_crashes",
        ):
            assert stats.get(fired), fired
        assert stats["fault_rollbacks"] == stats["fault_migration_aborts"]
