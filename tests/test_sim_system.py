"""System model: access workflows for every mechanism."""

import pytest

from repro.config import SystemConfig
from repro.policies import make_scheme
from repro.sim.results import ServicePoint
from repro.sim.system import MultiHostSystem


@pytest.fixture()
def cfg() -> SystemConfig:
    return SystemConfig.scaled()


def make_system(cfg, scheme_name, **kw) -> MultiHostSystem:
    return MultiHostSystem(cfg, make_scheme(scheme_name), workload_mlp=4.0,
                           **kw)


def test_non_lru_host_cache_rejected(cfg, monkeypatch):
    """The access path inlines LRU probes, so construction refuses any
    other replacement policy in a host cache."""
    import repro.host.host as host_module
    from repro.cache.sa_cache import SetAssocCache

    class FirstWayPolicy:
        def on_hit(self, entry, tick):
            pass

        def on_fill(self, entry, tick):
            pass

        def victim(self, entries):
            return next(iter(entries))

    real = host_module.cache_from_geometry

    def stub_llc(size_bytes, ways, line_bytes=64, name="cache"):
        cache = real(size_bytes, ways, line_bytes, name)
        if not name.endswith(".llc"):
            return cache
        return SetAssocCache(cache.num_sets, cache.ways,
                             policy=FirstWayPolicy(), name=name)

    monkeypatch.setattr(host_module, "cache_from_geometry", stub_llc)
    with pytest.raises(ValueError, match="h0.llc: host caches must use LRU"):
        make_system(cfg, "native")


class TestCacheFrontEnd:
    def test_inlined_probes_count_like_lookup(self, cfg):
        """access() probes the TLB/L1/LLC set dicts directly; the hit
        and miss counters must still read as SetAssocCache.lookup's."""
        system = make_system(cfg, "native")
        host = system.hosts[0]
        system.access(0, 0, 0x1000, False, 0.0)  # all three miss
        system.access(0, 0, 0x1000, False, 100.0)  # TLB + L1 hit
        system.access(0, 1, 0x1000, False, 200.0)  # other core: LLC hit
        tlb = host.tlb._cache
        assert (tlb.hits, tlb.misses) == (2, 1)
        assert (host.l1s[0].hits, host.l1s[0].misses) == (1, 1)
        assert (host.l1s[1].hits, host.l1s[1].misses) == (0, 1)
        assert (host.llc.hits, host.llc.misses) == (1, 1)

    def test_l1_hit_after_fill(self, cfg):
        system = make_system(cfg, "native")
        lat1, svc1 = system.access(0, 0, 0x1000, False, 0.0)
        lat2, svc2 = system.access(0, 0, 0x1000, False, 100.0)
        assert svc1 == ServicePoint.CXL_MEM
        assert svc2 == ServicePoint.L1
        assert lat2 < lat1

    def test_llc_hit_from_other_core(self, cfg):
        system = make_system(cfg, "native")
        system.access(0, 0, 0x1000, False, 0.0)
        _, svc = system.access(0, 1, 0x1000, False, 100.0)
        assert svc == ServicePoint.LLC

    def test_private_data_local(self, cfg):
        system = make_system(cfg, "native")
        start, _ = system.address_map.local_window(0)
        _, svc = system.access(0, 0, start, False, 0.0)
        assert svc == ServicePoint.LOCAL_MEM


class TestNativeCoherence:
    def test_dirty_owner_forward_is_4hop(self, cfg):
        system = make_system(cfg, "native")
        # Host 0 writes, then host 1 reads the same line.
        lat_w, _ = system.access(0, 0, 0x2000, True, 0.0)
        lat_r, svc = system.access(1, 0, 0x2000, False, 1000.0)
        assert svc == ServicePoint.CXL_FWD
        # 4-hop forward costs more than the plain 2-hop read.
        lat_plain, _ = system.access(1, 0, 0x9000, False, 2000.0)
        assert lat_r > lat_plain

    def test_forward_downgrades_owner(self, cfg):
        system = make_system(cfg, "native")
        system.access(0, 0, 0x2000, True, 0.0)
        system.access(1, 0, 0x2000, False, 1000.0)
        line = 0x2000 >> 6
        entry = system.hosts[0].llc.peek(line)
        assert entry is not None and not entry.dirty

    def test_write_invalidates_sharers(self, cfg):
        system = make_system(cfg, "native")
        system.access(0, 0, 0x2000, False, 0.0)
        system.access(1, 0, 0x2000, False, 100.0)
        system.access(2, 0, 0x2000, True, 200.0)
        line = 0x2000 >> 6
        assert not system.hosts[0].holds_line(line)
        assert not system.hosts[1].holds_line(line)
        assert system.hosts[2].holds_line(line)

    def test_upgrade_on_write_to_shared_copy(self, cfg):
        system = make_system(cfg, "native")
        system.access(0, 0, 0x2000, False, 0.0)
        system.access(1, 0, 0x2000, False, 100.0)
        # Host 0 writes its S copy -> upgrade path invalidates host 1.
        system.access(0, 0, 0x2000, True, 200.0)
        assert not system.hosts[1].holds_line(0x2000 >> 6)

    def test_directory_tracks_sharers(self, cfg):
        system = make_system(cfg, "native")
        system.access(0, 0, 0x2000, False, 0.0)
        system.access(1, 0, 0x2000, False, 100.0)
        entry = system.device_dir.peek(0x2000 >> 6)
        assert entry.sharers == {0, 1}


class TestLocalOnly:
    def test_everything_local(self, cfg):
        system = make_system(cfg, "local-only")
        _, svc = system.access(0, 0, 0x4000, False, 0.0)
        assert svc == ServicePoint.LOCAL_MEM


class TestPageMapMechanism:
    def _system_with_migrated_page(self, cfg):
        system = make_system(cfg, "nomad")
        page = 8
        system.page_map[page] = 0
        return system, page

    def test_owner_access_local(self, cfg):
        system, page = self._system_with_migrated_page(cfg)
        _, svc = system.access(0, 0, page << 12, False, 0.0)
        assert svc == ServicePoint.LOCAL_MEM

    def test_other_host_non_cacheable_4hop(self, cfg):
        system, page = self._system_with_migrated_page(cfg)
        addr = page << 12
        _, svc = system.access(1, 0, addr, False, 0.0)
        assert svc == ServicePoint.INTER_HOST
        # Non-cacheable: a repeat access is NOT an L1 hit.
        _, svc2 = system.access(1, 0, addr, False, 1000.0)
        assert svc2 == ServicePoint.INTER_HOST

    def test_interval_applies_plan(self, cfg):
        system = make_system(cfg, "nomad", footprint_pages=256)
        page = 12
        addr = page << 12
        # Hammer one page from host 0 so Nomad promotes it.
        now = 0.0
        for _ in range(50):
            system.access(0, 0, addr, False, now)
            system.hosts[0].llc.invalidate(addr >> 6)
            system.hosts[0].l1s[0].invalidate(addr >> 6)
            now += 1000.0
        system.maybe_tick(cfg.kernel.interval_ns + 1)
        assert system.page_map.get(page) == 0
        assert system.migrations >= 1
        assert system.mgmt_ns > 0
        assert system.transfer_ns > 0

    def test_migration_shoots_down_tlbs(self, cfg):
        system = make_system(cfg, "nomad", footprint_pages=256)
        addr = 12 << 12
        now = 0.0
        for _ in range(50):
            system.access(0, 0, addr, False, now)
            system.hosts[0].llc.invalidate(addr >> 6)
            system.hosts[0].l1s[0].invalidate(addr >> 6)
            now += 1000.0
        before = system.hosts[1].tlb.shootdowns
        system.maybe_tick(cfg.kernel.interval_ns + 1)
        assert system.hosts[1].tlb.shootdowns > before


class TestPipmMechanism:
    def test_full_cycle(self, cfg):
        """Promote -> evict (incremental migrate) -> local serve."""
        system = make_system(cfg, "pipm")
        page, now = 5, 0.0
        for rep in range(3):
            for lip in range(8):
                system.access(0, 0, (page << 12) + lip * 64, True, now)
                now += 100.0
        assert system.engine.counters.promotions == 1
        # Force eviction of line 0 by filling its LLC set.
        llc = system.hosts[0].llc
        base_line = page << 6
        for i in range(1, llc.ways + 2):
            conflict = (base_line + i * llc.num_sets) << 6
            if conflict < cfg.cxl_dram.capacity_bytes:
                system.access(0, 0, conflict, False, now)
                now += 100.0
        assert system.engine.counters.incremental_migrations >= 1
        entry = system.engine.local_tables[0].lookup(page)
        lip = next(i for i in range(64) if entry.line_migrated(i))
        lat, svc = system.access(0, 0, (page << 12) + lip * 64, False, now)
        assert svc == ServicePoint.PIPM_LOCAL

    def test_interhost_migrate_back_is_cacheable(self, cfg):
        system = make_system(cfg, "pipm")
        page, now = 5, 0.0
        for rep in range(3):
            for lip in range(8):
                system.access(0, 0, (page << 12) + lip * 64, True, now)
                now += 100.0
        entry = system.engine.local_tables[0].lookup(page)
        entry.set_line(40)  # pretend line 40 migrated
        addr = (page << 12) + 40 * 64
        _, svc = system.access(1, 0, addr, False, now)
        assert svc == ServicePoint.INTER_HOST
        assert not entry.line_migrated(40)  # migrated back
        # Cacheable at the requester: next access hits L1.
        _, svc2 = system.access(1, 0, addr, False, now + 100)
        assert svc2 == ServicePoint.L1

    def test_hw_static_materializes_own_partition(self, cfg):
        system = make_system(cfg, "hw-static")
        page = 4  # static home = page % 4 = 0
        system.access(0, 0, page << 12, False, 0.0)
        assert page in system.engine.local_tables[0]
        system.access(1, 0, (page + 1) << 12, False, 100.0)
        assert (page + 1) in system.engine.local_tables[1]

    def test_remap_walk_charged_on_cache_miss(self, cfg):
        system = make_system(cfg, "pipm")
        lat_cold, _ = system.access(0, 0, 0x7000, False, 0.0)
        system.hosts[0].llc.invalidate(0x7000 >> 6)
        system.hosts[0].l1s[0].invalidate(0x7000 >> 6)
        lat_warm, _ = system.access(0, 0, 0x7000, False, 10000.0)
        # Second access: remap cache + TLB warm -> cheaper.
        assert lat_warm < lat_cold
