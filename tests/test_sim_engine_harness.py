"""Simulation engine, harness, and result metrics."""

import gc
import tracemalloc

import pytest

from repro import (
    SystemConfig,
    compare_schemes,
    run_experiment,
    simulate,
)
from repro.policies import make_scheme
from repro.sim.engine import SimulationEngine
from repro.sim.harness import DEFAULT_SCHEMES, speedups_over_native
from repro.sim.system import MultiHostSystem


@pytest.fixture(scope="module")
def native_result(tiny_pr_trace, scaled_config):
    return simulate(tiny_pr_trace, make_scheme("native"), scaled_config)


@pytest.fixture(scope="module")
def pipm_result(tiny_pr_trace, scaled_config):
    return simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)


class TestEngine:
    def test_runs_all_accesses(self, native_result, tiny_pr_trace):
        assert native_result.accesses == tiny_pr_trace.total_accesses
        assert native_result.instructions == tiny_pr_trace.total_instructions

    def test_host_clocks_advance(self, native_result):
        assert all(t > 0 for t in native_result.host_time_ns)
        assert native_result.exec_time_ns == max(native_result.host_time_ns)

    def test_service_counts_sum(self, native_result):
        assert sum(native_result.service_counts.values()) == (
            native_result.accesses
        )

    def test_trace_host_mismatch_rejected(self, tiny_pr_trace):
        cfg = SystemConfig.scaled(num_hosts=2)
        system = MultiHostSystem(cfg, make_scheme("native"))
        with pytest.raises(ValueError):
            SimulationEngine(system, tiny_pr_trace)

    def test_bake_keeps_few_bytes_per_record(self, tiny_ycsb_trace,
                                             scaled_config):
        # The run loop's columns share one object per distinct value and
        # keep 38.2 bytes a record here; a tuple of four fresh objects
        # per record kept 136.5.
        system = MultiHostSystem(scaled_config, make_scheme("memtis"))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # Held, so the reading below still counts what it keeps.
            engine = SimulationEngine(system, tiny_ycsb_trace)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / tiny_ycsb_trace.total_accesses < 64

    def test_deterministic(self, tiny_pr_trace, scaled_config):
        a = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        b = simulate(tiny_pr_trace, make_scheme("pipm"), scaled_config)
        assert a.exec_time_ns == b.exec_time_ns
        assert a.service_counts == b.service_counts


class TestResultMetrics:
    def test_ipc_positive_and_bounded(self, native_result, scaled_config):
        per_host_ipc = native_result.ipc / scaled_config.num_hosts
        width = scaled_config.core.width * scaled_config.cores_per_host
        assert 0 < per_host_ipc < width

    def test_speedup_identity(self, native_result):
        assert native_result.speedup_over(native_result) == 1.0

    def test_speedup_rejects_cross_workload(self, native_result,
                                            tiny_ycsb_trace, scaled_config):
        other = simulate(tiny_ycsb_trace, make_scheme("native"), scaled_config)
        with pytest.raises(ValueError):
            other.speedup_over(native_result)

    def test_local_hit_rate_native_zero(self, native_result):
        assert native_result.local_hit_rate == 0.0

    def test_local_hit_rate_pipm_positive(self, pipm_result):
        assert pipm_result.local_hit_rate > 0.0

    def test_breakdown_components_sum(self, native_result, tiny_pr_trace,
                                      scaled_config):
        nomad = simulate(tiny_pr_trace, make_scheme("nomad"), scaled_config)
        parts = nomad.breakdown_vs(native_result.exec_time_ns)
        assert parts["total"] == pytest.approx(
            parts["other"] + parts["management"] + parts["transfer"]
        )

    def test_summary_readable(self, pipm_result):
        text = pipm_result.summary()
        assert "pr/pipm" in text
        assert "local_hit" in text

    def test_pipm_stats_present(self, pipm_result):
        assert "pipm_promotions" in pipm_result.stats
        assert "global_remap_cache_hit_rate" in pipm_result.stats

    def test_footprint_fractions_bounded(self, pipm_result):
        assert 0 <= pipm_result.local_page_footprint_fraction <= 1.5
        assert (pipm_result.local_line_footprint_fraction
                <= pipm_result.local_page_footprint_fraction + 1e-9)


class TestHarness:
    def test_run_experiment_by_name(self, scaled_config, tiny_scale):
        result = run_experiment("canneal", "native", scaled_config,
                                scale=tiny_scale)
        assert result.workload == "canneal"
        assert result.scheme == "native"

    def test_compare_schemes_shares_trace(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
        )
        assert set(results) == {"native", "pipm"}
        assert (results["native"].accesses == results["pipm"].accesses)

    def test_speedups_over_native(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "bodytrack", schemes=["native", "local-only"],
            config=scaled_config, scale=tiny_scale,
        )
        speedups = speedups_over_native(results)
        assert speedups["local-only"] > 1.0

    def test_speedups_need_native(self):
        with pytest.raises(ValueError):
            speedups_over_native({})

    def test_speedups_missing_baseline_names_available_keys(self):
        with pytest.raises(ValueError, match="pipm"):
            speedups_over_native({"pipm": None, "memtis": None})

    def test_speedups_custom_baseline(self, scaled_config, tiny_scale):
        results = compare_schemes(
            "bodytrack", schemes=["pipm", "local-only"],
            config=scaled_config, scale=tiny_scale,
        )
        speedups = speedups_over_native(results, baseline="local-only")
        assert set(speedups) == {"pipm"}

    def test_compare_rejects_duplicate_scheme_names(self, scaled_config,
                                                    tiny_scale):
        from repro.policies import make_scheme

        with pytest.raises(ValueError, match="duplicate scheme names"):
            compare_schemes(
                "bodytrack", schemes=["native", make_scheme("native")],
                config=scaled_config, scale=tiny_scale,
            )

    def test_compare_schemes_through_result_cache(self, scaled_config,
                                                  tiny_scale, tmp_path):
        cached = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
            cache_dir=tmp_path,
        )
        direct = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
        )
        assert cached == direct
        # Second call is served from the cache (same objects' values).
        again = compare_schemes(
            "streamcluster", schemes=["native", "pipm"],
            config=scaled_config, scale=tiny_scale,
            cache_dir=tmp_path,
        )
        assert again == cached

    def test_compare_cache_dir_needs_named_inputs(self, scaled_config,
                                                  tiny_scale,
                                                  tiny_pr_trace, tmp_path):
        with pytest.raises(ValueError, match="cacheable spec"):
            compare_schemes(
                tiny_pr_trace, schemes=["native"],
                config=scaled_config, scale=tiny_scale,
                cache_dir=tmp_path,
            )

    def test_default_scheme_order(self):
        assert DEFAULT_SCHEMES[0] == "native"
        assert DEFAULT_SCHEMES[-2:] == ("pipm", "local-only")

    def test_scheme_instance_accepted(self, tiny_pr_trace, scaled_config):
        scheme = make_scheme("memtis")
        result = run_experiment(tiny_pr_trace, scheme, scaled_config)
        assert result.scheme == "memtis"
