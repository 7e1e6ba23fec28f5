"""Golden tests for every simcheck AST rule, suppressions, and baseline."""

import textwrap

import pytest

from repro.simcheck import lint_source
from repro.simcheck.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.simcheck.engine import LintEngine, all_rules, classify_scope
from repro.simcheck.findings import Finding


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


class TestOrderingRule:
    def test_for_over_set_literal(self):
        findings = _lint("""
            def f():
                for host in {3, 1, 2}:
                    print(host)
        """)
        assert _rules(findings) == ["ORD001"]

    def test_tracked_set_variable(self):
        findings = _lint("""
            def f(xs):
                sharers = set(xs)
                return [x + 1 for x in sharers]
        """)
        assert _rules(findings) == ["ORD001"]

    def test_annotated_attribute(self):
        findings = _lint("""
            from typing import Set
            class Dir:
                def __init__(self):
                    self.sharers: Set[int] = set()
                def recall(self):
                    for s in self.sharers:
                        yield s
        """)
        assert "ORD001" in _rules(findings)

    def test_list_of_set_flagged_sorted_not(self):
        flagged = _lint("""
            def f(xs):
                return list(set(xs))
        """)
        assert _rules(flagged) == ["ORD001"]
        clean = _lint("""
            def f(xs):
                return sorted(set(xs))
        """)
        assert clean == []

    def test_order_insensitive_consumers_allowed(self):
        findings = _lint("""
            def f(xs):
                s = set(xs)
                return len(s), sum(s), max(s), 3 in s
        """)
        assert findings == []

    def test_reassignment_to_list_clears_tracking(self):
        findings = _lint("""
            def f(xs):
                items = set(xs)
                items = sorted(items)
                for item in items:
                    print(item)
        """)
        assert findings == []


class TestUnitRules:
    def test_rules_only_watch_config_and_mem(self):
        source = """
            size_bytes = 8192
        """
        assert _lint(source, relpath="src/repro/sim/foo.py") == []
        assert _rules(
            _lint(source, relpath="src/repro/config.py")
        ) == ["UNIT001"]
        assert _rules(
            _lint(source, relpath="src/repro/mem/tiering.py")
        ) == ["UNIT001"]

    def test_byte_literal_message_suggests_units(self):
        findings = _lint(
            "llc = dict(size_bytes=4 * 1024 * 1024)",
            relpath="src/repro/config.py",
        )
        assert all(f.rule == "UNIT001" for f in findings)
        assert findings and "units" in findings[0].message

    def test_non_byteish_names_ignored(self):
        findings = _lint(
            "iterations = 2048", relpath="src/repro/config.py"
        )
        assert findings == []

    def test_geometry_literals(self):
        findings = _lint("""
            def lines(total_bytes, addr):
                count = total_bytes // 64
                page = addr >> 12
                return count, page
        """, relpath="src/repro/mem/cxl_mem.py")
        assert _rules(findings) == ["UNIT002", "UNIT002"]

    def test_unit_constant_operand_is_fine(self):
        findings = _lint("""
            from repro.units import KB, CACHE_LINE
            size_bytes = 64 * KB
            lines = size_bytes // CACHE_LINE
        """, relpath="src/repro/config.py")
        assert findings == []


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


class TestMutableDefaults:
    def test_function_default(self):
        findings = _lint("""
            def f(xs=[]):
                return xs
        """)
        assert _rules(findings) == ["MUT001"]

    def test_kwonly_and_constructor_defaults(self):
        findings = _lint("""
            from collections import defaultdict
            def f(*, table=defaultdict(list), tags=set()):
                return table, tags
        """)
        assert _rules(findings) == ["MUT001", "MUT001"]

    def test_dataclass_field(self):
        findings = _lint("""
            from dataclasses import dataclass
            @dataclass
            class Plan:
                steps: list = []
        """)
        assert _rules(findings) == ["MUT001"]
        assert "default_factory" in findings[0].message

    def test_field_factory_is_fine(self):
        findings = _lint("""
            from dataclasses import dataclass, field
            @dataclass
            class Plan:
                steps: list = field(default_factory=list)
                count: int = 0
        """)
        assert findings == []

    def test_plain_class_attribute_not_flagged(self):
        findings = _lint("""
            class Registry:
                instances = []
        """)
        assert findings == []


class TestScopesAndSuppressions:
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

    def test_line_suppression_specific_rule(self):
        findings = _lint("""
            import time
            t = time.time()  # simcheck: ignore[DET001]
        """)
        assert findings == []

    def test_line_suppression_wrong_rule_does_not_hide(self):
        findings = _lint("""
            import time
            t = time.time()  # simcheck: ignore[ORD001]
        """)
        # The real finding survives, and the mistargeted pragma is itself
        # reported as an unused suppression (see TestUnusedSuppressions).
        assert sorted(_rules(findings)) == ["DET001", "SUPP001"]
        by_rule = {f.rule: f.severity for f in findings}
        assert by_rule == {"DET001": "error", "SUPP001": "info"}

    def test_bare_ignore_suppresses_everything_on_line(self):
        findings = _lint("""
            import random
            r = random.Random()  # simcheck: ignore
        """)
        assert findings == []

    def test_file_level_suppression_in_header(self):
        findings = _lint("""\
            # simcheck: ignore-file[DET003]
            import random
            x = random.randint(0, 9)
            y = random.random()
        """)
        assert findings == []

    def test_file_level_suppression_after_line_5_inert(self):
        findings = _lint("""
            import random




            # simcheck: ignore-file[DET003]
            x = random.randint(0, 9)
        """)
        # Past line 5 the pragma degrades to a line suppression on its
        # own (finding-free) line, so it also earns a stale-pragma note.
        assert _rules(findings) == ["SUPP001", "DET003"]


class TestUnusedSuppressions:
    """SUPP001: pragmas that hide nothing are themselves findings."""

    def test_used_pragma_is_silent(self):
        findings = _lint("""
            import time
            t = time.time()  # simcheck: ignore[DET001]
        """)
        assert findings == []

    def test_unused_bare_ignore_noted(self):
        findings = _lint("""
            x = 1  # simcheck: ignore
        """)
        assert _rules(findings) == ["SUPP001"]
        assert findings[0].severity == "info"
        assert "every rule" in findings[0].message

    def test_unknown_rule_id_noted(self):
        findings = _lint("""
            import time
            t = time.time()  # simcheck: ignore[DET0O1]
        """)
        assert sorted(_rules(findings)) == ["DET001", "SUPP001"]
        supp = next(f for f in findings if f.rule == "SUPP001")
        assert "unknown rule" in supp.message

    def test_unused_file_level_pragma_noted(self):
        findings = _lint("""\
            # simcheck: ignore-file[DET001]
            x = 1
        """)
        assert _rules(findings) == ["SUPP001"]
        assert "file-level" in findings[0].message

    def test_rule_subset_does_not_flag_other_pragmas(self):
        # A golden test linting with only DET001 must not call the
        # ORD001 pragma stale — ORD001 simply didn't run.
        from repro.simcheck.engine import REGISTRY

        findings = _lint(
            """
            import time
            t = time.time()  # simcheck: ignore[ORD001]
            """,
            rules=[REGISTRY["DET001"]],
        )
        assert _rules(findings) == ["DET001"]

    def test_quoted_pragma_text_not_a_claim(self):
        findings = _lint('''
            def helper():
                """Suppress with `# simcheck: ignore[DET001]` on the line."""
                return 1
        ''')
        assert findings == []


class TestEngineAndBaseline:
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

    def test_fingerprint_ignores_line_number(self):
        a = Finding(rule="DET001", path="src/x.py", line=10,
                    message="m", line_text="t = time.time()")
        b = Finding(rule="DET001", path="src/x.py", line=99,
                    message="m", line_text="t = time.time()")
        assert a.fingerprint() == b.fingerprint()

    def test_baseline_round_trip(self, tmp_path):
        findings = [
            Finding(rule="DET001", path="src/x.py", line=3,
                    message="m", line_text="t = time.time()"),
            Finding(rule="DET001", path="src/x.py", line=9,
                    message="m", line_text="t = time.time()"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(str(path), findings)
        baseline = load_baseline(str(path))
        assert sum(baseline.values()) == 2

        fresh, grandfathered = apply_baseline(findings, baseline)
        assert fresh == [] and grandfathered == 2

        # A *new* finding is not covered by the old budget.
        extra = findings + [
            Finding(rule="ORD001", path="src/y.py", line=1,
                    message="m", line_text="for x in {1, 2}: pass"),
        ]
        fresh, grandfathered = apply_baseline(extra, baseline)
        assert _rules(fresh) == ["ORD001"] and grandfathered == 2

    def test_baseline_counts_are_a_budget(self, tmp_path):
        finding = Finding(rule="DET001", path="src/x.py", line=3,
                          message="m", line_text="t = time.time()")
        path = tmp_path / "baseline.json"
        write_baseline(str(path), [finding])
        baseline = load_baseline(str(path))
        # Two identical lines against a budget of one: one leaks through.
        fresh, grandfathered = apply_baseline(
            [finding, finding], baseline
        )
        assert len(fresh) == 1 and grandfathered == 1

    def test_info_findings_never_baselined(self, tmp_path):
        note = Finding(rule="PROTO006", path="src/x.py", line=1,
                       message="n", severity="info", line_text="x")
        path = tmp_path / "baseline.json"
        write_baseline(str(path), [note])
        assert load_baseline(str(path)) == {}
        fresh, grandfathered = apply_baseline([note], {"k": 5})
        assert fresh == [note] and grandfathered == 0

    def test_baseline_version_check(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": {}}')
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_every_registered_rule_has_identity(self):
        rules = all_rules()
        assert len(rules) >= 9
        assert len({r.id for r in rules}) == len(rules)
        for rule in rules:
            assert rule.id and rule.title and rule.scopes


class TestRobustnessRules:
    def test_bare_except_flagged_even_with_real_body(self):
        findings = _lint("""
            def load(path):
                try:
                    return read(path)
                except:
                    note("unreadable")
        """)
        assert _rules(findings) == ["ROB001"]
        assert findings[0].line == 5

    def test_broad_noop_handler_flagged(self):
        findings = _lint("""
            def cleanup(path):
                try:
                    path.unlink()
                except Exception:
                    pass
        """)
        assert _rules(findings) == ["ROB001"]

    def test_base_exception_ellipsis_flagged(self):
        findings = _lint("""
            def poke(conn):
                try:
                    conn.send(b"x")
                except BaseException:
                    ...
        """)
        assert _rules(findings) == ["ROB001"]

    def test_broad_inside_tuple_flagged(self):
        findings = _lint("""
            def fetch(url):
                try:
                    return get(url)
                except (ValueError, Exception):
                    pass
        """)
        assert _rules(findings) == ["ROB001"]

    def test_narrow_swallow_not_flagged(self):
        findings = _lint("""
            def cleanup(path):
                try:
                    path.unlink()
                except OSError:
                    pass
        """)
        assert findings == []

    def test_broad_handler_with_real_body_not_flagged(self):
        findings = _lint("""
            def run(job):
                try:
                    return job()
                except Exception as exc:
                    record_failure(job, exc)
                    return None
        """)
        assert findings == []

    def test_bare_except_with_reraise_not_flagged(self):
        findings = _lint("""
            def run(job):
                try:
                    return job()
                except:
                    release(job)
                    raise
        """)
        assert findings == []

    def test_suppression_comment_honoured(self):
        findings = _lint("""
            def cleanup(path):
                try:
                    path.unlink()
                except Exception:  # simcheck: ignore[ROB001]
                    pass
        """)
        assert findings == []


class TestUnboundedSleepLoopRule:
    def test_while_true_sleep_without_exit_flagged(self):
        findings = _lint("""
            import time
            def watch(path):
                while True:
                    poll(path)
                    time.sleep(1.0)
        """)
        assert _rules(findings) == ["ROB002"]
        assert findings[0].line == 4

    def test_from_import_alias_resolved(self):
        findings = _lint("""
            from time import sleep as snooze
            def watch(path):
                while 1:
                    poll(path)
                    snooze(0.5)
        """)
        assert _rules(findings) == ["ROB002"]

    def test_break_bounds_the_loop(self):
        findings = _lint("""
            import time
            def watch(path, deadline):
                while True:
                    if ready(path) or time.monotonic() > deadline:
                        break
                    time.sleep(1.0)
        """)
        assert findings == []

    def test_return_and_raise_bound_the_loop(self):
        findings = _lint("""
            import time
            def wait(path, attempts):
                while True:
                    if ready(path):
                        return path
                    if attempts == 0:
                        raise TimeoutError(path)
                    attempts -= 1
                    time.sleep(0.1)
        """)
        assert findings == []

    def test_real_condition_not_flagged(self):
        findings = _lint("""
            import time
            def drain(queue):
                while queue:
                    queue.pop()
                    time.sleep(0.01)
        """)
        assert findings == []

    def test_loop_without_sleep_not_flagged(self):
        findings = _lint("""
            def spin(queue):
                while True:
                    queue.tick()
        """)
        assert findings == []

    def test_sleep_inside_nested_def_not_attributed_to_loop(self):
        """A loop that *defines* a sleeper never blocks on it itself;
        exits inside the nested function must not count either."""
        findings = _lint("""
            import time
            def build(jobs):
                while True:
                    def worker():
                        time.sleep(5)
                        return 1
                    jobs.append(worker)
        """)
        assert findings == []

    def test_suppression_comment_honoured(self):
        findings = _lint("""
            import time
            def serve_forever(handler):
                while True:  # simcheck: ignore[ROB002]
                    handler.poll()
                    time.sleep(0.2)
        """)
        assert findings == []


class TestUnboundedRetryLoopRule:
    def test_unconditional_continue_flagged(self):
        findings = _lint("""
            def fetch(job):
                while True:
                    try:
                        return job.run()
                    except Exception:
                        continue
        """)
        assert _rules(findings) == ["ROB003"]

    def test_swallow_and_fall_through_flagged(self):
        findings = _lint("""
            def fetch(job):
                while True:
                    try:
                        job.step()
                    except ValueError:
                        pass
        """)
        assert _rules(findings) == ["ROB003"]

    def test_attempt_bounded_continue_not_flagged(self):
        """The sweep runner's idiom: retry only while attempts remain."""
        findings = _lint("""
            def fetch(job, retries):
                attempt = 0
                while True:
                    attempt += 1
                    try:
                        return job.run()
                    except Exception as exc:
                        if attempt <= retries:
                            continue
                        record_failure(job, exc)
                        break
        """)
        assert findings == []

    def test_reraising_handler_not_flagged(self):
        findings = _lint("""
            def fetch(job):
                while True:
                    try:
                        return job.run()
                    except KeyboardInterrupt:
                        raise
        """)
        assert findings == []

    def test_bounded_outer_loop_not_flagged(self):
        findings = _lint("""
            def fetch(job, attempts):
                for _ in range(attempts):
                    try:
                        return job.run()
                    except Exception:
                        continue
        """)
        assert findings == []

    def test_inner_loop_handler_not_attributed_to_outer(self):
        """A retrying handler inside a bounded inner loop continues the
        inner loop, so the outer while-True must not be blamed."""
        findings = _lint("""
            def drain(queue):
                while True:
                    batch = queue.take()
                    if not batch:
                        break
                    for job in batch:
                        try:
                            job.run()
                        except Exception:
                            continue
        """)
        assert findings == []

    def test_suppression_comment_honoured(self):
        findings = _lint("""
            def poll_forever(source):
                while True:
                    try:
                        source.read()
                    except OSError:  # simcheck: ignore[ROB003]
                        continue
        """)
        assert findings == []
