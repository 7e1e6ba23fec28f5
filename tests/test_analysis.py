"""Harmful-migration ledger, breakdowns, report formatting."""

import pytest

from repro.analysis.harmful import MigrationLedger, reference_latencies
from repro.analysis.report import Table, format_series, format_table, geomean, mean


class TestReferenceLatencies:
    def test_ordering(self, scaled_config):
        local, cxl, inter = reference_latencies(scaled_config)
        assert local < cxl < inter

    def test_cxl_is_2_to_3x_local(self, paper_config):
        """The paper's headline latency ratio (Section 1)."""
        local, cxl, _ = reference_latencies(paper_config)
        assert 1.8 < cxl / local < 3.5

    def test_latency_knob_feeds_through(self, scaled_config):
        slow = scaled_config.replace_nested("cxl_link", latency_ns=100.0)
        _, cxl_fast, _ = reference_latencies(scaled_config)
        _, cxl_slow, _ = reference_latencies(slow)
        assert cxl_slow > cxl_fast + 90


class TestMigrationLedger:
    @pytest.fixture()
    def ledger(self, scaled_config) -> MigrationLedger:
        return MigrationLedger(scaled_config)

    def test_beneficial_migration(self, ledger):
        ledger.record_migration(1, dest=0)
        for _ in range(10_000):
            ledger.record_local_access(1)
        ledger.record_demotion(1)
        assert ledger.total_migrations == 1
        assert ledger.harmful_migrations == 0

    def test_harmful_migration(self, ledger):
        ledger.record_migration(1, dest=0)
        for _ in range(1000):
            ledger.record_remote_access(1)
        ledger.record_demotion(1)
        assert ledger.harmful_migrations == 1

    def test_migration_cost_counts_as_harm(self, ledger):
        """A migration with zero subsequent traffic is net harmful."""
        ledger.record_migration(1, dest=0)
        ledger.record_demotion(1)
        assert ledger.harmful_migrations == 1

    def test_finalize_classifies_live(self, ledger):
        ledger.record_migration(1, dest=0)
        ledger.record_migration(2, dest=1)
        ledger.finalize()
        assert ledger.total_migrations == 2
        assert ledger.harmful_migrations == 2

    def test_remigration_finalizes_previous(self, ledger):
        ledger.record_migration(1, dest=0)
        ledger.record_migration(1, dest=1)
        assert ledger.total_migrations == 2

    def test_harmful_fraction(self, ledger):
        assert ledger.harmful_fraction == 0.0
        ledger.record_migration(1, 0)
        ledger.record_demotion(1)
        ledger.record_migration(2, 0)
        for _ in range(10_000):
            ledger.record_local_access(2)
        ledger.record_demotion(2)
        assert ledger.harmful_fraction == 0.5

    def test_untracked_events_ignored(self, ledger):
        ledger.record_local_access(99)
        ledger.record_remote_access(99)
        ledger.record_demotion(99)
        assert ledger.total_migrations == 0


class TestAggregates:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0
        assert geomean([0, 2]) == 2  # zeros skipped


class TestTables:
    def test_table_renders_aligned(self):
        table = Table("T", ["a", "bb"])
        table.add_row("x", 1)
        out = table.render()
        assert "T" in out
        assert "x" in out

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            Table("T", ["a"]).add_row(1, 2)

    def test_format_table(self):
        out = format_table("T", ["w", "v"], [("pr", 1.5), ("bfs", 2.0)])
        assert "pr" in out and "2.0" in out

    def test_format_series_with_geomean_row(self):
        out = format_series(
            "S", {"pr": {"pipm": 2.0}, "bfs": {"pipm": 0.5}}, mean_row="gmean"
        )
        assert "gmean" in out
        assert "1.000" in out  # geomean(2, 0.5)

    def test_format_series_empty(self):
        assert "empty" in format_series("S", {})
