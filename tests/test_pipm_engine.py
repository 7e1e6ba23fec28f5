"""PIPM engine: promotion, incremental migration, migrate-back, revocation."""

from repro import units
from repro.config import PipmConfig
from repro.pipm.engine import PipmEngine


def make_engine(static=False, frames=64, **kwargs) -> PipmEngine:
    return PipmEngine(
        PipmConfig(), num_hosts=4, cxl_capacity_bytes=16 * units.MB,
        frames_per_host=frames, static_map=static, **kwargs
    )


def promote(engine, page, host):
    dest = None
    for _ in range(PipmConfig().migration_threshold):
        dest = engine.record_cxl_access(page, host)
    assert dest == host
    return engine.local_tables[host].lookup(page)


class TestPromotion:
    def test_threshold_promotes(self):
        engine = make_engine()
        entry = promote(engine, 5, host=2)
        assert entry is not None
        assert engine.counters.promotions == 1
        assert engine.global_table.current_host(5) == 2

    def test_no_frames_denies(self):
        engine = make_engine(frames=1)
        promote(engine, 1, host=0)
        dest = None
        for _ in range(20):
            dest = engine.record_cxl_access(2, 0)
        assert dest is None
        assert engine.counters.promotions_denied > 0

    def test_migrated_page_stops_voting(self):
        engine = make_engine()
        promote(engine, 5, host=2)
        assert engine.record_cxl_access(5, 3) is None


class TestIncrementalMigration:
    def test_fresh_line_counts(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        assert engine.incremental_migrate(0, entry, 7)
        assert not engine.incremental_migrate(0, entry, 7)  # case 4 refresh
        assert engine.counters.incremental_migrations == 1
        assert entry.line_migrated(7)

    def test_peak_footprints_tracked(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        engine.incremental_migrate(0, entry, 0)
        assert engine.counters.peak_pages[0] == 1
        assert engine.counters.peak_lines[0] == 1
        assert engine.peak_page_footprint_bytes(0) == units.PAGE_SIZE
        assert engine.peak_line_footprint_bytes(0) == units.CACHE_LINE


class TestInterHostAndRevocation:
    def test_migrate_back_clears_line(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        engine.incremental_migrate(0, entry, 3)
        # local accesses defend the counter first
        for _ in range(8):
            engine.record_local_access(entry)
        migrated, revoked = engine.inter_host_access(0, 5, 3)
        assert migrated
        assert revoked is None
        assert not entry.line_migrated(3)
        assert engine.counters.migrate_backs == 1

    def test_inter_host_on_unmigrated_line(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        migrated, _ = engine.inter_host_access(0, 5, 9)
        assert not migrated

    def test_inter_host_without_entry(self):
        engine = make_engine()
        migrated, revoked = engine.inter_host_access(1, 77, 0)
        assert not migrated
        assert revoked is None

    def test_revocation_returns_lines_and_frees_frame(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        for line in (1, 2, 3):
            engine.incremental_migrate(0, entry, line)
        in_use = engine.frames[0].in_use
        revoked = None
        for _ in range(20):
            migrated, revoked = engine.inter_host_access(0, 5, 0)
            if revoked is not None:
                break
        assert revoked == [1, 2, 3]
        assert engine.counters.revocations == 1
        assert 5 not in engine.local_tables[0]
        assert engine.frames[0].in_use == in_use - 1
        assert engine.global_table.current_host(5) == -1

    def test_page_can_remigrate_after_revocation(self):
        engine = make_engine()
        entry = promote(engine, 5, 0)
        engine.incremental_migrate(0, entry, 0)
        for _ in range(20):
            _, revoked = engine.inter_host_access(0, 5, 0)
            if revoked is not None:
                break
        entry2 = promote(engine, 5, 1)
        assert entry2 is not None
        assert engine.global_table.current_host(5) == 1


class TestStaticMap:
    def test_uniform_partition(self):
        engine = make_engine(static=True)
        homes = {engine.static_home(p) for p in range(8)}
        assert homes == {0, 1, 2, 3}

    def test_lazy_materialization_on_home_host(self):
        engine = make_engine(static=True)
        page = 4  # home = 0
        entry, _ = engine.local_lookup(0, page)
        assert entry is not None
        entry_other, _ = engine.local_lookup(1, page)
        assert entry_other is None

    def test_static_never_votes(self):
        engine = make_engine(static=True)
        for _ in range(50):
            assert engine.record_cxl_access(3, 3) is None

    def test_static_never_revokes(self):
        engine = make_engine(static=True)
        page = 4
        entry, _ = engine.local_lookup(0, page)
        engine.incremental_migrate(0, entry, 2)
        for _ in range(50):
            migrated, revoked = engine.inter_host_access(0, page, 2)
            assert revoked is None
        assert page in engine.local_tables[0]


class TestRemapCacheIntegration:
    def test_local_lookup_caches_negatives(self):
        engine = make_engine()
        engine.local_lookup(0, 9)
        _, hit = engine.local_lookup(0, 9)
        assert hit

    def test_device_lookup_tracks_hits(self):
        engine = make_engine()
        assert not engine.device_lookup(3)
        assert engine.device_lookup(3)

    def test_infinite_caches(self):
        engine = make_engine(infinite_global_cache=True,
                             infinite_local_cache=True)
        assert engine.device_lookup(123)
        _, hit = engine.local_lookup(0, 456)
        assert hit
