"""System configuration: presets, validation, nested replacement."""

import dataclasses

import pytest

from repro import units
from repro.config import (
    CacheConfig,
    PipmConfig,
    SystemConfig,
)


class TestPaperPreset:
    """Table 2 values, verbatim."""

    def test_hosts_and_cores(self, paper_config):
        assert paper_config.num_hosts == 4
        assert paper_config.cores_per_host == 4

    def test_cpu(self, paper_config):
        core = paper_config.core
        assert core.freq_ghz == 4.0
        assert core.width == 6
        assert core.rob_entries == 224
        assert core.load_queue == 72
        assert core.store_queue == 56

    def test_caches(self, paper_config):
        assert paper_config.l1.size_bytes == 32 * units.KB
        assert paper_config.l1.ways == 8
        assert paper_config.llc.size_bytes == 8 * units.MB
        assert paper_config.llc.ways == 16

    def test_dram(self, paper_config):
        assert paper_config.cxl_dram.capacity_bytes == 128 * units.GB
        assert paper_config.cxl_dram.channels == 2
        assert paper_config.local_dram.capacity_bytes == 32 * units.GB
        assert paper_config.local_dram.channels == 1

    def test_ddr5_timings(self, paper_config):
        dram = paper_config.cxl_dram
        assert (dram.trc_ns, dram.trcd_ns, dram.tcl_ns, dram.trp_ns) == (
            48, 15, 20, 15,
        )

    def test_cxl_link(self, paper_config):
        assert paper_config.cxl_link.latency_ns == 50.0
        assert paper_config.cxl_link.bandwidth_gbs == 5.0

    def test_device_directory(self, paper_config):
        d = paper_config.directory
        assert (d.sets, d.ways, d.slices) == (2048, 16, 16)
        assert d.entries == 2048 * 16 * 16

    def test_pipm_parameters(self, paper_config):
        p = paper_config.pipm
        assert p.migration_threshold == 8
        assert p.global_remap_cache_bytes == 16 * units.KB
        assert p.local_remap_cache_bytes == 1 * units.MB
        assert p.global_entry_bytes == 2
        assert p.local_entry_bytes == 4

    def test_kernel_migration(self, paper_config):
        k = paper_config.kernel
        assert k.interval_ns == 10 * units.MS
        assert k.initiator_cost_ns == 20 * units.US
        assert k.other_core_cost_ns == 5 * units.US

    def test_describe_covers_table2_rows(self, paper_config):
        rows = paper_config.describe()
        for key in ("Architecture", "CPU", "Shared LLC", "CXL link",
                    "CXL Directory", "PIPM"):
            assert key in rows


class TestScaledPreset:
    def test_validates(self, scaled_config):
        scaled_config.validate()

    def test_directory_covers_llc_sum(self, scaled_config):
        llc_lines = (
            scaled_config.num_hosts
            * scaled_config.llc.size_bytes
            // units.CACHE_LINE
        )
        assert scaled_config.directory.entries >= llc_lines

    def test_kernel_interval_shrinks(self, scaled_config, paper_config):
        assert scaled_config.kernel.interval_ns < paper_config.kernel.interval_ns

    def test_cost_to_interval_ratio_order(self, scaled_config):
        # The per-page cost stays a small fraction of the interval.
        ratio = (
            scaled_config.kernel.initiator_cost_ns
            / scaled_config.kernel.interval_ns
        )
        assert 0.001 < ratio < 0.2

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled(size_scale=0)
        with pytest.raises(ValueError):
            SystemConfig.scaled(time_scale=0)

    def test_num_hosts_override(self):
        cfg = SystemConfig.scaled(num_hosts=8)
        assert cfg.num_hosts == 8


class TestValidation:
    def test_too_many_hosts_for_id_bits(self):
        cfg = SystemConfig.scaled().replace(num_hosts=33)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_threshold_must_fit_counters(self):
        bad_pipm = dataclasses.replace(PipmConfig(), migration_threshold=100)
        cfg = SystemConfig.scaled().replace(pipm=bad_pipm)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_cache_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 16, 1.0).validate()

    def test_capacity_fraction_bounds(self):
        cfg = SystemConfig.scaled().replace(migration_capacity_fraction=0.0)
        with pytest.raises(ValueError):
            cfg.validate()


class TestReplacement:
    def test_replace_nested_link(self, scaled_config):
        cfg = scaled_config.replace_nested("cxl_link", latency_ns=100.0)
        assert cfg.cxl_link.latency_ns == 100.0
        # original untouched (frozen dataclasses)
        assert scaled_config.cxl_link.latency_ns == 50.0

    def test_replace_top_level(self, scaled_config):
        cfg = scaled_config.replace(num_hosts=2)
        assert cfg.num_hosts == 2

    def test_cache_sets_property(self):
        c = CacheConfig(32 * units.KB, 8, 1.0)
        assert c.sets == 64

    def test_dram_latency_helpers(self, paper_config):
        dram = paper_config.local_dram
        assert dram.row_hit_ns < dram.row_miss_ns

    def test_kernel_config_immutable(self, paper_config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_config.kernel.interval_ns = 1.0
