"""The parallel sweep runner and the benches' cached-run entry point."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

from repro import SystemConfig
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepJournal,
    SweepRunner,
    TraceStore,
    build_matrix,
    run_spec,
)
from repro.workloads.trace import WorkloadScale

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

TINY = WorkloadScale.tiny()
#: The acceptance matrix: 2 workloads x 3 schemes at tiny scale.
WORKLOADS = ["pr", "ycsb"]
SCHEMES = ["native", "memtis", "pipm"]


def _matrix():
    return build_matrix(WORKLOADS, SCHEMES, scale=TINY)


class TestSweepRunner:
    def test_parallel_is_byte_identical_to_serial(self, tmp_path):
        specs = _matrix()
        serial = SweepRunner(specs, tmp_path / "serial", workers=1).run()
        parallel = SweepRunner(specs, tmp_path / "parallel", workers=2).run()
        assert serial.misses == len(specs) == parallel.misses
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        keys = sorted(serial_store.keys())
        assert keys == sorted(parallel_store.keys())
        assert len(keys) == len(specs)
        for key in keys:
            assert (serial_store.path_for(key).read_bytes()
                    == parallel_store.path_for(key).read_bytes())

    def test_second_invocation_is_all_hits(self, tmp_path):
        specs = _matrix()[:3]
        first = SweepRunner(specs, tmp_path, workers=2).run()
        assert first.hits == 0
        second = SweepRunner(specs, tmp_path, workers=2).run()
        assert second.hits == len(specs)
        assert second.hit_rate == 1.0
        # All-hits sweeps touch no traces at all.
        assert second.trace_reports == []

    def test_traces_generated_once_per_workload(self, tmp_path):
        specs = _matrix()
        summary = SweepRunner(specs, tmp_path, workers=2).run()
        # 6 specs share 2 traces: one warm task per workload, none a hit.
        assert len(summary.trace_reports) == len(WORKLOADS)
        assert all(not hit for _wl, hit, _s in summary.trace_reports)
        trace_files = list(TraceStore(tmp_path).traces_dir.glob("*.npz"))
        assert len(trace_files) == len(WORKLOADS)

    def test_stats_aggregate_counter_vs_gauge(self, tmp_path):
        specs = _matrix()
        summary = SweepRunner(specs, tmp_path, workers=2).run()
        assert summary.stats["sweep.runs"] == len(specs)
        assert summary.stats["sweep.cache_hits"] == 0
        # Gauges must not be multiplied by the number of merged workers:
        # every run reports freq_ghz=4.0 and a merged *sum* would be 24.0.
        assert summary.stats["freq_ghz"] == 4.0
        assert 0.0 <= summary.stats["harmful_fraction"] <= 1.0
        # Counters accumulate across workers.
        assert summary.stats["pipm_promotions"] > 0

    def test_per_run_reports_carry_wall_clock_and_hit(self, tmp_path):
        spec = ExperimentSpec.build("pr", "native", scale=TINY)
        miss = run_spec(spec, tmp_path)
        assert not miss.report.cache_hit
        assert miss.report.elapsed_s > 0
        hit = run_spec(spec, tmp_path)
        assert hit.report.cache_hit
        assert hit.result == miss.result
        assert hit.report.elapsed_s < miss.report.elapsed_s

    def test_workers_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner([], tmp_path, workers=-1)

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 4,
        reason="wall-clock speedup needs >= 4 usable CPUs",
    )
    def test_four_workers_at_least_2x_faster(self, tmp_path):
        specs = _matrix()
        t0 = time.perf_counter()
        SweepRunner(specs, tmp_path / "serial", workers=1).run()
        serial_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        SweepRunner(specs, tmp_path / "parallel", workers=4).run()
        parallel_wall = time.perf_counter() - t0
        assert parallel_wall * 2.0 <= serial_wall, (
            f"4 workers: {parallel_wall:.2f}s vs serial {serial_wall:.2f}s"
        )


class TestSweepResilience:
    """Crash isolation, failure attribution, resume, interrupt hygiene."""

    def test_failures_isolated_and_resume_retries_only_them(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE acceptance scenario: one raising + one hanging worker.

        The sweep must complete, the healthy results must land, both
        failures must be attributed (failed vs timeout), and a resumed
        invocation must re-attempt only the failed specs.
        """
        import repro.sweep.runner as runner_mod

        real_simulate = runner_mod.simulate

        def hang_on_ycsb(trace, scheme, config, **kwargs):
            if trace.name == "ycsb":
                time.sleep(600)
            return real_simulate(trace, scheme, config, **kwargs)

        # Workers fork from this process, so they inherit the patch.
        monkeypatch.setattr(runner_mod, "simulate", hang_on_ycsb)
        healthy = build_matrix(["pr"], ["native", "memtis"], scale=TINY)
        raising = ExperimentSpec.build(
            "pr", "pipm", scale=TINY,
            system_kwargs={"definitely_not_a_kwarg": True},
        )
        hanging = ExperimentSpec.build("ycsb", "native", scale=TINY)
        specs = healthy + [raising, hanging]

        summary = SweepRunner(
            specs, tmp_path, workers=2, timeout_s=3.0
        ).run()

        assert summary.runs == len(healthy)
        assert summary.failed == 2
        by_key = {f.key: f for f in summary.failures}
        assert by_key[raising.key()].status == "failed"
        assert "definitely_not_a_kwarg" in by_key[raising.key()].error
        assert by_key[hanging.key()].status == "timeout"
        store = ResultStore(tmp_path)
        for spec in healthy:
            assert spec.key() in store

        # Resume with the hang cured: healthy specs are skipped without
        # re-running, the hung spec now completes, the intrinsically
        # broken spec fails again.
        monkeypatch.setattr(runner_mod, "simulate", real_simulate)
        resumed = SweepRunner(specs, tmp_path, workers=1, resume=True).run()
        assert resumed.skipped == len(healthy)
        assert hanging.key() in store
        assert resumed.failed == 1
        assert resumed.failures[0].key == raising.key()

    def test_serial_path_isolates_failures_too(self, tmp_path):
        good = ExperimentSpec.build("pr", "native", scale=TINY)
        bad = ExperimentSpec.build(
            "pr", "pipm", scale=TINY, system_kwargs={"nope": 1}
        )
        summary = SweepRunner([bad, good], tmp_path, workers=1).run()
        assert summary.failed == 1
        assert summary.failures[0].status == "failed"
        assert "nope" in summary.failures[0].error
        assert good.key() in ResultStore(tmp_path)

    def test_retry_marks_report_and_journal(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        real_simulate = runner_mod.simulate
        flag = tmp_path / "attempted"

        def fail_once(trace, scheme, config, **kwargs):
            if not flag.exists():
                flag.write_text("x")
                raise RuntimeError("transient")
            return real_simulate(trace, scheme, config, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate", fail_once)
        spec = ExperimentSpec.build("pr", "native", scale=TINY)
        summary = SweepRunner(
            [spec], tmp_path, workers=1, retries=1, backoff_s=0.01
        ).run()
        assert summary.failed == 0
        assert summary.retried == 1
        report = summary.reports[0]
        assert report.status == "retried"
        assert report.attempts == 2
        entry = SweepJournal(tmp_path).outcomes()[spec.key()]
        assert entry.status == "retried"
        assert entry.succeeded

    def test_interrupt_purges_orphaned_temp_files(self, tmp_path):
        specs = _matrix()[:2]
        store = ResultStore(tmp_path)
        traces = TraceStore(tmp_path)
        store.results_dir.mkdir(parents=True, exist_ok=True)
        traces.traces_dir.mkdir(parents=True, exist_ok=True)
        (store.results_dir / ".orphan-result.tmp").write_text("torn")
        (traces.traces_dir / ".orphan-trace.tmp").write_text("torn")

        def interrupt(_line):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(specs, tmp_path, workers=1).run(progress=interrupt)
        assert list(store.results_dir.glob(".*.tmp")) == []
        assert list(traces.traces_dir.glob(".*.tmp")) == []
        # The interrupted sweep is resumable: at least the first spec's
        # completion reached the journal before the interrupt landed.
        journal = SweepJournal(tmp_path)
        assert any(e.succeeded for e in journal.outcomes().values())

    def test_resume_reruns_when_results_were_cleared(self, tmp_path):
        """A journal that outlived its cache must not fake a skip."""
        spec = ExperimentSpec.build("pr", "native", scale=TINY)
        SweepRunner([spec], tmp_path, workers=1).run()
        store = ResultStore(tmp_path)
        store.path_for(spec.key()).unlink()
        resumed = SweepRunner([spec], tmp_path, workers=1, resume=True).run()
        assert resumed.skipped == 0
        assert resumed.misses == 1
        assert spec.key() in store

    def test_resume_skip_reports_cached_exec_time(self, tmp_path):
        spec = ExperimentSpec.build("pr", "native", scale=TINY)
        first = SweepRunner([spec], tmp_path, workers=1).run()
        resumed = SweepRunner([spec], tmp_path, workers=1, resume=True).run()
        assert resumed.skipped == 1
        report = resumed.reports[0]
        assert report.attempts == 0
        assert report.exec_time_ns == first.reports[0].exec_time_ns


class TestSweepJournal:
    def test_last_entry_wins_across_epochs(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin(2)
        journal.record("k1", "pr/native", "failed", error="Boom")
        journal.record("k2", "pr/pipm", "ok")
        journal.begin(1)
        journal.record("k1", "pr/native", "ok", cache_hit=True)
        outcomes = journal.outcomes()
        assert outcomes["k1"].succeeded
        assert outcomes["k1"].run == 2
        assert outcomes["k2"].run == 1
        assert journal.epochs() == 2

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.record("k1", "pr/native", "ok")
        with open(journal.path, "ab") as fh:
            fh.write(b'{"event":"spec","key":"k2","stat')  # writer died
        assert set(journal.outcomes()) == {"k1"}

    def test_error_tail_is_bounded(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.record("k1", "l", "failed", error="x" * 10_000)
        entry = journal.outcomes()["k1"]
        assert entry.error is not None
        assert len(entry.error) == 2000

    def test_rejects_unknown_status(self, tmp_path):
        with pytest.raises(ValueError, match="status"):
            SweepJournal(tmp_path).record("k", "l", "exploded")

    def test_empty_string_error_is_not_dropped(self, tmp_path):
        """A failure whose message is '' must still journal the field.

        The old ``if error:`` truthiness test silently discarded it,
        making the entry indistinguishable from a success record."""
        journal = SweepJournal(tmp_path)
        journal.record("k1", "l", "failed", error="")
        entry = journal.outcomes()["k1"]
        assert entry.error == ""
        journal.record("k2", "l", "failed")  # genuinely no attribution
        assert journal.outcomes()["k2"].error is None

    def test_two_concurrent_invocations_interleave_cleanly(self, tmp_path):
        """Two writers on the same journal (O_APPEND, one write per
        line) interleave without tearing, the fold is last-wins, and the
        per-key execution and cache-hit counts accumulate over every
        epoch and both writers (``sweep`` and ``serve`` share one)."""
        left = SweepJournal(tmp_path)
        right = SweepJournal(tmp_path)
        left.begin(2)
        right.begin(2)
        for run in range(25):
            left.record("shared", "pr/pipm", "failed",
                        error=f"left {run}")
            right.record(f"r{run}", "pr/native", "ok")
            left.record(f"l{run}", "pr/pipm", "ok")
            right.record("shared", "pr/pipm", "ok", cache_hit=True)
        outcomes = left.outcomes()
        assert outcomes == right.outcomes()  # one log, two handles
        assert len(outcomes) == 51
        assert len(left.path.read_text().splitlines()) == 102
        assert outcomes["shared"].succeeded  # right's record landed last
        assert all(outcomes[f"l{i}"].succeeded for i in range(25))
        assert all(outcomes[f"r{i}"].succeeded for i in range(25))
        assert left.epochs() == 2
        # Failed attempts count as neither; hits are not executions.
        assert outcomes["shared"].executions == 0
        assert outcomes["shared"].cache_hits == 25
        assert outcomes["l0"].executions == 1
        assert outcomes["l0"].cache_hits == 0
        # A second epoch from each writer adds to the counts instead of
        # restarting them.
        left.begin(1)
        left.record("shared", "pr/pipm", "retried", attempts=2)
        right.begin(1)
        right.record("shared", "pr/pipm", "ok", cache_hit=True)
        right.record("l0", "pr/pipm", "ok")
        left.record("l0", "pr/pipm", "timeout", error="slow")
        outcomes = right.outcomes()
        assert outcomes == left.outcomes()
        assert left.epochs() == 4
        shared = outcomes["shared"]
        assert (shared.executions, shared.cache_hits) == (1, 26)
        assert shared.cache_hit and shared.run == 4
        l0 = outcomes["l0"]
        assert l0.status == "timeout" and not l0.succeeded
        assert (l0.executions, l0.cache_hits) == (2, 0)
        assert outcomes["r0"].executions == 1

    def test_missing_journal_reads_empty(self, tmp_path):
        journal = SweepJournal(tmp_path / "nowhere")
        assert journal.outcomes() == {}
        assert journal.epochs() == 0


class TestRunCached:
    @pytest.fixture()
    def common(self, tmp_path, monkeypatch):
        import common as module

        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        monkeypatch.setattr(module, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(module, "_TRACES", TraceStore(tmp_path))
        return module

    def test_config_is_part_of_the_key(self, common):
        """Regression: same tag + different config must not alias.

        The old ``workload|scheme|scale|tag`` key ignored the config, so
        an ablation that forgot a unique tag silently read the base
        config's result.
        """
        base = common.run_cached("pr", "native")
        slow_cfg = SystemConfig.scaled().replace_nested(
            "cxl_link", latency_ns=400.0
        )
        slow = common.run_cached("pr", "native", config=slow_cfg)
        assert slow.exec_time_ns > base.exec_time_ns
        # Both entries coexist; re-reads return the matching result.
        assert common.run_cached("pr", "native") == base
        assert common.run_cached("pr", "native", config=slow_cfg) == slow

    def test_scheme_and_system_kwargs_are_part_of_the_key(self, common):
        default = common.run_cached("pr", "pipm")
        infinite = common.run_cached(
            "pr", "pipm", infinite_local_remap_cache=True
        )
        store = ResultStore(common.CACHE_DIR)
        assert len(store) == 2
        assert default == common.run_cached("pr", "pipm")
        assert infinite == common.run_cached(
            "pr", "pipm", infinite_local_remap_cache=True
        )

    def test_tag_is_label_only(self, common):
        a = common.run_cached("ycsb", "native", tag="one")
        b = common.run_cached("ycsb", "native", tag="two")
        assert a == b
        assert len(ResultStore(common.CACHE_DIR)) == 1

    def test_cache_shared_with_sweep_matrix(self, common):
        """`repro sweep` pre-computes exactly what run_cached reads."""
        specs = build_matrix(["pr"], ["native"], scale=TINY)
        summary = SweepRunner(specs, common.CACHE_DIR, workers=1).run()
        assert summary.misses == 1
        result = common.run_cached("pr", "native")
        assert result.workload == "pr"
        # No new entry: the bench read the sweep's result.
        assert len(ResultStore(common.CACHE_DIR)) == 1
