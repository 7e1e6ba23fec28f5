"""Golden tests for every simcheck AST rule and the engine."""

import textwrap

import pytest

from repro.simcheck import lint_source
from repro.simcheck.engine import LintEngine, all_rules, classify_scope


def _lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def _rules(findings):
    return [f.rule for f in findings]


class TestDeterminismRules:
    def test_wall_clock_flagged(self):
        findings = _lint("""
            import time
            def stamp():
                return time.time()
        """)
        assert _rules(findings) == ["DET001"]
        assert findings[0].line == 4

    def test_datetime_now_flagged_via_alias(self):
        findings = _lint("""
            from datetime import datetime as dt
            def stamp():
                return dt.now()
        """)
        assert _rules(findings) == ["DET001"]

    def test_perf_counter_allowed(self):
        findings = _lint("""
            import time
            def elapsed(t0):
                return time.perf_counter() - t0
        """)
        assert findings == []

    def test_unseeded_rng_flagged(self):
        findings = _lint("""
            import random
            import numpy as np
            a = random.Random()
            b = np.random.default_rng()
        """)
        assert _rules(findings) == ["DET002", "DET002"]
        # An unseeded generator aliased into the simulation entry point,
        # and one left unseeded on a single branch: the constructor call
        # itself is the finding, wherever the object flows afterwards.
        aliased = _lint("""
            import numpy as np

            def run(spec):
                rng = np.random.default_rng()
                gen = rng
                return simulate(spec, gen)
        """)
        assert _rules(aliased) == ["DET002"]
        assert aliased[0].line == 5
        half_seeded = _lint("""
            import random

            def pick(flag, n):
                if flag:
                    rng = random.Random(7)
                else:
                    rng = random.Random()
                return rng.randrange(n)
        """)
        assert _rules(half_seeded) == ["DET002"]
        assert half_seeded[0].line == 8

    def test_seeded_rng_allowed(self):
        findings = _lint("""
            import random
            import numpy as np
            a = random.Random(7)
            b = np.random.default_rng(seed=7)
        """)
        assert findings == []

    def test_global_rng_flagged(self):
        findings = _lint("""
            import random
            import numpy as np
            x = random.randint(0, 9)
            y = np.random.shuffle([1, 2])
        """)
        assert _rules(findings) == ["DET003", "DET003"]


class TestConsistencyRule:
    def test_identical_ternary_branches_flagged(self):
        findings = _lint("""
            _S = 1
            def drop(entry):
                entry.state = _S if entry.sharers else _S
        """)
        assert _rules(findings) == ["CON001"]
        assert findings[0].line == 4

    def test_identical_call_branches_flagged(self):
        findings = _lint("""
            def pick(cond, x):
                return f(x) if cond else f(x)
        """)
        assert _rules(findings) == ["CON001"]

    def test_distinct_branches_allowed(self):
        findings = _lint("""
            _I = 0
            _S = 1
            def drop(entry):
                entry.state = _S if entry.sharers else _I
        """)
        assert findings == []

    def test_structurally_equal_not_textually_equal_flagged(self):
        # Whitespace/parens differ but the AST is the same expression.
        findings = _lint("""
            def pick(cond, a, b):
                return (a + b) if cond else a+b
        """)
        assert _rules(findings) == ["CON001"]


class TestStatsRules:
    def test_mixed_add_and_put(self):
        findings = _lint("""
            def record(stats, n):
                stats.add("migrations", n)
                stats.put("migrations", n)
        """)
        assert _rules(findings) == ["STAT001"]
        assert "migrations" in findings[0].message

    def test_distinct_keys_fine(self):
        findings = _lint("""
            def record(stats, n):
                stats.add("migrations", n)
                stats.put("hit_rate", 0.5)
        """)
        assert findings == []

    def test_counter_via_put_get(self):
        findings = _lint("""
            def bump(stats):
                stats.put("evictions", stats.get("evictions") + 1)
        """)
        assert _rules(findings) == ["STAT002"]

    def test_string_add_with_preresolved_cells(self):
        findings = _lint("""
            class Link:
                def __init__(self, stats):
                    self._stats = stats
                    self._messages = stats.counter("messages")

                def slow_path(self, n):
                    if self._stats is not None:
                        self._stats.add("messages", n)
        """)
        assert _rules(findings) == ["STAT003"]
        assert "messages" in findings[0].message

    def test_string_add_without_cells_fine(self):
        findings = _lint("""
            def record(stats, n):
                stats.add("sweep.runs", n)
        """)
        assert findings == []

    def test_set_add_not_flagged(self):
        findings = _lint("""
            def track(stats, seen, key):
                cell = stats.counter("messages")
                seen.add("messages")
                return cell
        """)
        assert findings == []


class TestScopes:
    def test_scope_classification(self):
        assert classify_scope("src/repro/sim/system.py") == "src"
        assert classify_scope("tests/test_cli.py") == "tests"
        assert classify_scope("benchmarks/bench_figures.py") == "benchmarks"

    def test_determinism_rules_skip_tests_scope(self):
        source = """
            import random
            x = random.randint(0, 9)
        """
        assert _rules(_lint(source)) == ["DET003"]
        assert _lint(source, relpath="tests/test_foo.py") == []


class TestEngine:
    def test_engine_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "src" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def f(:\n")
        result = LintEngine(root=str(tmp_path)).run([str(tmp_path)])
        assert _rules(result.findings) == ["SYNTAX"]

    def test_engine_walk_and_scope_filter(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(
            "import random\nx = random.random()\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "t.py").write_text(
            "import random\nx = random.random()\n"
        )
        result = LintEngine(root=str(tmp_path)).run([str(tmp_path)])
        assert [f.path for f in result.findings] == ["pkg/a.py"]
        assert result.files_checked == 1

    def test_every_registered_rule_has_identity(self):
        rules = all_rules()
        assert [r.id for r in rules] == [
            "CON001", "DET001", "DET002", "DET003",
            "STAT001", "STAT002", "STAT003",
        ]
        for rule in rules:
            assert rule.title and rule.scopes
