"""The Section 6 extension: software control over partial migration."""

from repro import units
from repro.config import PipmConfig
from repro.pipm.engine import PipmEngine


def make_engine(**kwargs) -> PipmEngine:
    return PipmEngine(PipmConfig(), num_hosts=4,
                      cxl_capacity_bytes=16 * units.MB,
                      frames_per_host=64, **kwargs)


def drive_vote(engine, page, host, times=8):
    dest = None
    for _ in range(times):
        dest = engine.record_cxl_access(page, host)
    return dest


class TestPinToCxl:
    def test_pinned_page_never_promoted(self):
        engine = make_engine()
        engine.pin_to_cxl(5)
        assert drive_vote(engine, 5, 0, times=50) is None
        assert engine.counters.promotions == 0

    def test_pin_revokes_existing_migration(self):
        engine = make_engine()
        assert drive_vote(engine, 5, 0) == 0
        entry = engine.local_tables[0].lookup(5)
        engine.incremental_migrate(0, entry, 3)
        engine.pin_to_cxl(5)
        assert 5 not in engine.local_tables[0]
        assert engine.counters.revocations == 1

    def test_unpin_restores_migration(self):
        engine = make_engine()
        engine.pin_to_cxl(5)
        engine.unpin(5)
        assert engine.migration_enabled(5)
        assert drive_vote(engine, 5, 0) == 0

    def test_migration_enabled_query(self):
        engine = make_engine()
        assert engine.migration_enabled(9)
        engine.pin_to_cxl(9)
        assert not engine.migration_enabled(9)


class TestExplicitMigrationRequest:
    def test_request_creates_mapping_without_vote(self):
        engine = make_engine()
        assert engine.request_partial_migration(7, host=2)
        assert 7 in engine.local_tables[2]
        assert engine.global_table.current_host(7) == 2
        assert engine.counters.promotions == 1

    def test_request_respects_pin(self):
        engine = make_engine()
        engine.pin_to_cxl(7)
        assert not engine.request_partial_migration(7, host=2)

    def test_request_respects_existing_mapping(self):
        engine = make_engine()
        engine.request_partial_migration(7, host=2)
        assert not engine.request_partial_migration(7, host=3)

    def test_request_respects_frame_budget(self):
        engine = PipmEngine(PipmConfig(), 4, 16 * units.MB,
                            frames_per_host=1)
        assert engine.request_partial_migration(1, host=0)
        assert not engine.request_partial_migration(2, host=0)
        assert engine.counters.promotions_denied == 1

    def test_static_map_rejects_requests(self):
        engine = make_engine(static_map=True)
        assert not engine.request_partial_migration(7, host=2)

    def test_requested_page_migrates_incrementally(self):
        engine = make_engine()
        engine.request_partial_migration(7, host=2)
        entry = engine.local_tables[2].lookup(7)
        assert engine.incremental_migrate(2, entry, 0)
        assert entry.line_migrated(0)
