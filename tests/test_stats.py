"""Statistics registry and histogram."""

import pytest

from repro.stats import Histogram, StatRegistry, ratio


class TestStatRegistry:
    def test_add_accumulates(self):
        reg = StatRegistry()
        reg.add("x", 2)
        reg.add("x", 3)
        assert reg.get("x") == 5

    def test_put_overwrites(self):
        reg = StatRegistry()
        reg.add("x", 2)
        reg.put("x", 1)
        assert reg.get("x") == 1

    def test_get_default(self):
        assert StatRegistry().get("missing", 42.0) == 42.0

    def test_scoped_prefixes(self):
        reg = StatRegistry()
        scope = reg.scoped("host0")
        scope.add("llc.misses")
        assert reg.get("host0.llc.misses") == 1

    def test_nested_scopes(self):
        reg = StatRegistry()
        inner = reg.scoped("host0").scoped("llc")
        inner.add("hits", 7)
        assert reg.get("host0.llc.hits") == 7

    def test_snapshot_is_a_copy(self):
        reg = StatRegistry()
        reg.add("x")
        snap = reg.snapshot()
        reg.add("x")
        assert snap["x"] == 1

    def test_merge(self):
        reg = StatRegistry()
        reg.add("x", 1)
        reg.merge({"x": 2, "y": 3})
        assert reg.get("x") == 3
        assert reg.get("y") == 3

    def test_merge_does_not_sum_gauges(self):
        """Regression: merging worker snapshots double-counted ``put``s."""
        merged = StatRegistry()
        for _worker in range(3):
            worker = StatRegistry()
            worker.add("accesses", 100)       # counter: additive
            worker.put("hit_rate", 0.5)       # gauge: not additive
            merged.merge(worker)
        assert merged.get("accesses") == 300
        assert merged.get("hit_rate") == 0.5  # not 1.5
        assert merged.is_gauge("hit_rate")
        assert not merged.is_gauge("accesses")

    def test_merge_plain_mapping_with_explicit_gauges(self):
        worker = StatRegistry()
        worker.add("ops", 10)
        worker.put("occupancy", 7.0)
        merged = StatRegistry()
        merged.merge(worker.snapshot(), gauges=worker.gauge_keys())
        merged.merge(worker.snapshot(), gauges=worker.gauge_keys())
        assert merged.get("ops") == 20
        assert merged.get("occupancy") == 7.0

    def test_put_then_add_reverts_to_counter(self):
        reg = StatRegistry()
        reg.put("x", 5)
        assert reg.is_gauge("x")
        reg.add("x", 1)
        assert not reg.is_gauge("x")

    def test_scoped_put_marks_gauge(self):
        reg = StatRegistry()
        reg.scoped("host0").put("queue_depth", 4)
        assert reg.is_gauge("host0.queue_depth")

    def test_clear_prefix_drops_gauge_marks(self):
        reg = StatRegistry()
        reg.scoped("host0").put("g", 1)
        reg.clear_prefix("host0.")
        assert reg.gauge_keys() == set()

    def test_contains_and_clear(self):
        reg = StatRegistry()
        reg.add("x")
        assert "x" in reg
        reg.clear()
        assert "x" not in reg


class TestHistogram:
    def test_mean(self):
        h = Histogram(bucket_width=10)
        for v in (5, 15, 25):
            h.record(v)
        assert h.mean == 15

    def test_max(self):
        h = Histogram(bucket_width=10)
        h.record(3)
        h.record(99)
        assert h.maximum == 99

    def test_percentile_monotone(self):
        h = Histogram(bucket_width=1)
        for v in range(100):
            h.record(v)
        assert h.percentile(0.5) <= h.percentile(0.9) <= h.percentile(1.0)

    def test_percentile_zero_is_minimum(self):
        """Regression: p0 returned the first bucket's *upper* edge."""
        h = Histogram(bucket_width=10)
        for v in (42, 55, 90):
            h.record(v)
        assert h.percentile(0.0) == 42
        assert h.minimum == 42

    def test_percentile_never_exceeds_maximum(self):
        h = Histogram(bucket_width=10)
        h.record(3)
        assert h.percentile(1.0) == 3
        assert h.percentile(0.0) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=1).record(-1)

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram(bucket_width=1).percentile(1.5)

    def test_empty_percentile_is_zero(self):
        assert Histogram(bucket_width=1).percentile(0.5) == 0.0


def test_ratio_zero_denominator():
    assert ratio(5, 0) == 0
    assert ratio(6, 3) == 2
