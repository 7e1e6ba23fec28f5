"""Host-side components: core model, TLB, page table, Host assembly."""

import pytest

from repro.config import CoreConfig
from repro.host.core import CoreModel
from repro.host.host import Host
from repro.host.page_table import PageTable, hosts_mapping
from repro.host.tlb import Tlb
from repro.stats import StatRegistry


class TestCoreModel:
    def test_compute_time(self):
        core = CoreModel(CoreConfig(), workload_mlp=4.0)
        # base_cpi 0.4 at 4GHz -> 0.1ns per instruction
        assert core.compute_ns(10) == pytest.approx(1.0)

    def test_stall_divided_by_mlp(self):
        core = CoreModel(CoreConfig(), workload_mlp=4.0)
        assert core.stall_ns(400.0) == pytest.approx(100.0)

    def test_mlp_capped_by_load_queue(self):
        core = CoreModel(CoreConfig(load_queue=8), workload_mlp=100.0)
        assert core.mlp == 8

    def test_mlp_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            CoreModel(CoreConfig(), workload_mlp=0.5)


class TestTlb:
    def test_walk_then_hit(self):
        tlb = Tlb(entries=64, ways=4, walk_ns=50.0)
        assert tlb.translate(5) == 50.0
        assert tlb.translate(5) == 0.0
        assert tlb.misses == 1

    def test_shootdown_forces_rewalk(self):
        tlb = Tlb()
        tlb.translate(5)
        assert tlb.shootdown(5)
        assert tlb.translate(5) == tlb.walk_ns
        assert tlb.shootdowns == 1

    def test_shootdown_of_absent_page(self):
        tlb = Tlb()
        assert not tlb.shootdown(99)

    def test_capacity_eviction(self):
        tlb = Tlb(entries=4, ways=4)
        for page in range(5):
            tlb.translate(page)
        # page 0 evicted (LRU within the single set of its index) -> rewalk
        total_misses = tlb.misses
        assert total_misses == 5


class TestPageTable:
    def test_touch_and_remap(self):
        pt = PageTable(0)
        pt.touch(5)
        assert pt.maps(5)
        assert pt.remap(5)
        assert pt.updates == 1
        assert not pt.remap(99)

    def test_hosts_mapping(self):
        tables = {h: PageTable(h) for h in range(3)}
        tables[0].touch(5)
        tables[2].touch(5)
        assert hosts_mapping(tables, 5) == {0, 2}


class TestHost:
    @pytest.fixture()
    def host(self, scaled_config) -> Host:
        return Host(0, scaled_config, StatRegistry().scoped("h0"), 4.0)

    def test_structure(self, host, scaled_config):
        assert len(host.l1s) == scaled_config.cores_per_host
        assert host.llc.capacity == (
            scaled_config.llc.size_bytes // scaled_config.llc.line_bytes
        )

    def test_l1_for_wraps(self, host):
        assert host.l1_for(0) is host.l1s[0]
        assert host.l1_for(4) is host.l1s[0]

    def test_invalidate_line_reports_dirty(self, host):
        host.fill_line(0, line=7, dirty=True)
        assert host.invalidate_line(7)
        assert not host.invalidate_line(7)

    def test_downgrade_keeps_copy(self, host):
        host.fill_line(0, line=7, dirty=True)
        assert host.downgrade_line(7)
        assert host.holds_line(7)
        assert not host.downgrade_line(7)  # now clean

    def test_fill_line_returns_llc_victim(self, host):
        victim = None
        line = 0
        while victim is None:
            victim = host.fill_line(0, line, dirty=False)
            line += host.llc.num_sets  # same-set conflicts
        assert victim is not None

    def test_advance_compute_and_ipc(self, host):
        host.advance_compute(1000)
        assert host.instructions == 1000
        assert host.clock_ns > 0
        assert host.ipc() > 0

    def test_ipc_zero_before_running(self, host):
        assert host.ipc() == 0.0
