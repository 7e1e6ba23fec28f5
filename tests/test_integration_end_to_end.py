"""End-to-end integration: every scheme on real traces, paper-shape checks."""

import pytest

from repro import SystemConfig, WorkloadScale, compare_schemes, generate, simulate
from repro.policies import SCHEME_CLASSES, make_scheme
from repro.sim.results import ServicePoint


@pytest.fixture(scope="module")
def cfg():
    return SystemConfig.scaled()


@pytest.fixture(scope="module")
def pr_results(cfg):
    return compare_schemes("pr", schemes=list(SCHEME_CLASSES),
                           config=cfg, scale=WorkloadScale.tiny())


class TestAllSchemesRun:
    def test_every_scheme_completes(self, pr_results):
        assert set(pr_results) == set(SCHEME_CLASSES)
        for result in pr_results.values():
            assert result.exec_time_ns > 0
            assert result.accesses > 0

    def test_native_never_uses_local_memory_for_shared(self, pr_results):
        native = pr_results["native"]
        assert ServicePoint.PIPM_LOCAL not in native.service_counts
        assert ServicePoint.INTER_HOST not in native.service_counts

    def test_local_only_never_touches_cxl(self, pr_results):
        ideal = pr_results["local-only"]
        assert int(ServicePoint.CXL_MEM) not in ideal.service_counts
        assert int(ServicePoint.INTER_HOST) not in ideal.service_counts


class TestPaperShapes:
    """Directional claims from the evaluation, at tiny scale."""

    def test_ideal_is_fastest(self, pr_results):
        ideal = pr_results["local-only"].exec_time_ns
        for name, result in pr_results.items():
            if name != "local-only":
                assert ideal <= result.exec_time_ns

    def test_pipm_beats_native_on_graphs(self, pr_results):
        assert (pr_results["pipm"].exec_time_ns
                < pr_results["native"].exec_time_ns)

    def test_pipm_best_local_hit_among_migrating(self, pr_results):
        pipm_hit = pr_results["pipm"].local_hit_rate
        for name in ("nomad", "memtis", "hemem", "hw-static"):
            assert pipm_hit >= pr_results[name].local_hit_rate

    def test_pipm_low_interhost_stalls(self, pr_results):
        native_exec = pr_results["native"].exec_time_ns
        pipm = pr_results["pipm"].inter_host_stall_fraction(native_exec)
        assert pipm < 0.10

    def test_pipm_no_kernel_mgmt_overhead(self, pr_results):
        assert pr_results["pipm"].mgmt_ns == 0.0
        assert pr_results["nomad"].mgmt_ns >= 0.0

    def test_hw_static_quarter_mapping(self, cfg):
        result = simulate(
            generate("pr", scale=WorkloadScale.tiny()),
            make_scheme("hw-static"), cfg,
        )
        # Each host can map only its static quarter: the page-level local
        # footprint stays near 25% of the touched footprint.
        assert result.local_page_footprint_fraction < 0.40


class TestLinkLatencySensitivity:
    """Fig. 14's direction: slower links widen PIPM's advantage."""

    def test_pipm_gain_grows_with_latency(self, cfg):
        trace = generate("streamcluster", scale=WorkloadScale.tiny())
        gains = {}
        for latency in (50.0, 100.0):
            c = cfg.replace_nested("cxl_link", latency_ns=latency)
            native = simulate(trace, make_scheme("native"), c)
            pipm = simulate(trace, make_scheme("pipm"), c)
            gains[latency] = pipm.speedup_over(native)
        assert gains[100.0] > gains[50.0]


class TestRemapCacheSensitivity:
    """Figs. 16/17 direction: infinite remap caches never hurt."""

    def test_infinite_local_cache_at_least_as_fast(self, cfg):
        trace = generate("xsbench", scale=WorkloadScale.tiny())
        finite = simulate(trace, make_scheme("pipm"), cfg)
        infinite = simulate(trace, make_scheme("pipm"), cfg,
                            infinite_local_remap_cache=True)
        assert infinite.exec_time_ns <= finite.exec_time_ns * 1.02

    def test_infinite_global_cache_at_least_as_fast(self, cfg):
        trace = generate("xsbench", scale=WorkloadScale.tiny())
        finite = simulate(trace, make_scheme("pipm"), cfg)
        infinite = simulate(trace, make_scheme("pipm"), cfg,
                            infinite_global_remap_cache=True)
        assert infinite.exec_time_ns <= finite.exec_time_ns * 1.02


class TestHarmfulMigrationAccounting:
    def test_kernel_schemes_record_harm(self, cfg):
        trace = generate("canneal", scale=WorkloadScale.tiny())
        result = simulate(trace, make_scheme("memtis"), cfg)
        if result.stats.get("total_migrations", 0):
            assert 0.0 <= result.stats["harmful_fraction"] <= 1.0

    def test_pipm_has_no_ledger(self, pr_results):
        assert "harmful_fraction" not in pr_results["pipm"].stats


class TestMultiHostScaling:
    @pytest.mark.parametrize("hosts", [2, 8])
    def test_other_host_counts(self, hosts):
        cfg = SystemConfig.scaled(num_hosts=hosts)
        trace = generate("ycsb", num_hosts=hosts, scale=WorkloadScale.tiny())
        result = simulate(trace, make_scheme("pipm"), cfg)
        assert result.num_hosts == hosts
        assert result.exec_time_ns > 0
