"""Behavioural timing properties of the system model."""

import pytest

from repro import SystemConfig, WorkloadScale, generate, simulate
from repro.analysis.breakdown import interval_breakdown
from repro.policies import make_scheme as mk
from repro.sim.system import MultiHostSystem


@pytest.fixture(scope="module")
def cfg():
    return SystemConfig.scaled()


class TestLatencyOrdering:
    """Take-away #1: local < CXL (2-hop) < inter-host (4-hop)."""

    def test_service_latencies_ordered(self, cfg):
        system = MultiHostSystem(cfg, mk("nomad"), workload_mlp=4.0,
                                 footprint_pages=512)
        # local: host 0's own migrated page
        system.page_map[1] = 0
        lat_local, _ = system.access(0, 0, 1 << 12, False, 0.0)
        # CXL: plain shared page
        lat_cxl, _ = system.access(0, 0, 50 << 12, False, 1000.0)
        # inter-host: host 1 touching host 0's migrated page
        lat_inter, _ = system.access(1, 0, 1 << 12, False, 2000.0)
        assert lat_local < lat_cxl < lat_inter

    def test_cxl_roughly_2_to_3x_local(self, cfg):
        system = MultiHostSystem(cfg, mk("nomad"), workload_mlp=4.0,
                                 footprint_pages=512)
        system.page_map[1] = 0
        lat_local, _ = system.access(0, 0, (1 << 12) + 64, False, 0.0)
        lat_cxl, _ = system.access(0, 0, (50 << 12) + 64, False, 1000.0)
        assert 1.5 < lat_cxl / lat_local < 4.5

    def test_link_latency_knob_moves_cxl_latency(self, cfg):
        def cxl_latency(latency_ns):
            c = cfg.replace_nested("cxl_link", latency_ns=latency_ns)
            system = MultiHostSystem(c, mk("native"), workload_mlp=4.0)
            lat, _ = system.access(0, 0, 0x3000, False, 0.0)
            return lat

        assert cxl_latency(100.0) > cxl_latency(50.0) + 90


class TestBandwidthContention:
    def test_migration_burst_delays_demand_traffic(self, cfg):
        """Page transfers occupy the link; demand accesses queue behind."""
        system = MultiHostSystem(cfg, mk("memtis"), workload_mlp=4.0,
                                 footprint_pages=512)
        baseline, _ = system.access(0, 0, 0x9000, False, 0.0)
        # Saturate host 0's link with page-sized migration transfers.
        for page in range(20):
            system._page_transfer(0, 100 + page, to_local=True, now=1000.0)
        # TO_HOST direction (data responses) is now busy.
        loaded, _ = system.access(0, 0, 0xA000, False, 1000.0)
        assert loaded > baseline


class TestDirectoryPressure:
    def test_back_invalidation_under_capacity(self):
        # A deliberately tiny device directory thrashes.
        small = SystemConfig.scaled()
        small = small.replace_nested("directory", sets=64, ways=2, slices=1)
        trace = generate("canneal", scale=WorkloadScale.tiny())
        result = simulate(trace, mk("native"), small)
        assert result.stats["back_invalidations"] > 0

    def test_pipm_relieves_directory_pressure(self, cfg):
        """Migrated lines stop consuming device directory entries (4.3.3)."""
        trace = generate("streamcluster", scale=WorkloadScale.tiny())
        native = simulate(trace, mk("native"), cfg)
        pipm = simulate(trace, mk("pipm"), cfg)
        assert (pipm.stats["back_invalidations"]
                <= native.stats["back_invalidations"])


class TestBreakdownHelper:
    def test_interval_breakdown_shapes(self, cfg):
        trace = generate("ycsb", scale=WorkloadScale.tiny())
        intervals = [cfg.kernel.interval_ns, cfg.kernel.interval_ns / 4]
        out = interval_breakdown(trace, "memtis", intervals, cfg)
        assert set(out) == set(intervals)
        for parts in out.values():
            assert set(parts) == {"other", "management", "transfer", "total"}
            assert parts["total"] == pytest.approx(
                parts["other"] + parts["management"] + parts["transfer"]
            )


class TestMlpEffect:
    def test_lower_mlp_means_longer_stalls(self, cfg):
        trace = generate("xsbench", scale=WorkloadScale.tiny())
        import dataclasses

        low = dataclasses.replace(trace, mlp=1.5)
        high = dataclasses.replace(trace, mlp=8.0)
        slow = simulate(low, mk("native"), cfg)
        fast = simulate(high, mk("native"), cfg)
        assert slow.exec_time_ns > fast.exec_time_ns


class TestRevocationCharging:
    def test_revocation_bulk_transfer_accounted(self, cfg):
        system = MultiHostSystem(cfg, mk("pipm"), workload_mlp=4.0)
        engine = system.engine
        assert engine.request_partial_migration(5, host=0)
        entry = engine.local_tables[0].lookup(5)
        for line in range(10):
            entry.set_line(line)
        before = system.transfer_ns
        system._revocation_transfer(0, 5, list(range(10)), now=0.0)
        assert system.transfer_ns > before
        assert system.demotions == 1
