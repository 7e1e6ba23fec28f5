"""Statistics registry."""

from repro.stats import StatRegistry, ratio


class TestStatRegistry:
    def test_counter_accumulates(self):
        reg = StatRegistry()
        reg.counter("x").value += 2
        reg.counter("x").value += 3
        assert reg.get("x") == 5

    def test_get_default(self):
        assert StatRegistry().get("missing", 42.0) == 42.0

    def test_scoped_prefixes(self):
        reg = StatRegistry()
        scope = reg.scoped("host0")
        scope.counter("llc.misses").value += 1
        assert reg.get("host0.llc.misses") == 1

    def test_nested_scopes(self):
        reg = StatRegistry()
        inner = reg.scoped("host0").scoped("llc")
        inner.counter("hits").value += 7
        assert reg.get("host0.llc.hits") == 7

    def test_snapshot_is_a_copy(self):
        reg = StatRegistry()
        cell = reg.counter("x")
        cell.value += 1
        snap = reg.snapshot()
        cell.value += 1
        assert snap["x"] == 1

    def test_scoped_clear_drops_only_its_prefix(self):
        reg = StatRegistry()
        reg.scoped("host0").counter("a").value += 1
        reg.counter("host1.a").value += 1
        assert reg.scoped("host0").clear() == 1
        assert reg.snapshot() == {"host1.a": 1}


def test_ratio_zero_denominator():
    assert ratio(5, 0) == 0
    assert ratio(6, 3) == 2
