"""The experiment service: spool batches, parking, recovery, drain, status."""

from __future__ import annotations

import pytest

from repro import SystemConfig
from repro.serve import ExperimentService, submit_spec
from repro.serve.status import (
    ServiceStatus,
    format_status,
    pid_alive,
    read_status,
)
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepJournal,
    SweepRunner,
    run_spec,
)
from repro.workloads.trace import WorkloadScale

TINY = WorkloadScale.tiny()


def _spec(workload="pr", scheme="pipm", **scheme_kwargs):
    return ExperimentSpec.build(
        workload, scheme,
        config=SystemConfig.scaled(num_hosts=4),
        scale=TINY,
        scheme_kwargs=scheme_kwargs,
    )


def _poison_spec():
    """Parses and keys fine; every attempt to run it raises."""
    return _spec(scheme_kwargs_marker=1)


def _service(tmp_path, **overrides):
    overrides.setdefault("retries", 0)
    overrides.setdefault("backoff_s", 0.01)
    return ExperimentService(tmp_path / "svc", **overrides)


def _spooled(service):
    return list(service.spool.glob("*.json"))


class TestServiceJournal:
    """The service's journal is the sweep journal under its cache."""

    def test_rejects_unknown_state(self, tmp_path):
        """Writing an unknown status raises; a line carrying one, or a
        line of the old transition vocabulary, counts toward nothing."""
        service = _service(tmp_path)
        journal = SweepJournal(service.cache_dir)
        with pytest.raises(ValueError, match="status"):
            journal.record("k", "pr/pipm", "meditating")
        journal.root.mkdir(parents=True)
        with open(journal.path, "a") as fh:
            fh.write('{"event":"spec","key":"k","status":"meditating"}\n')
            fh.write('{"event":"state","key":"k","state":"done"}\n')
        assert journal.outcomes() == {}
        assert service.run(exit_when_idle=True) == 0
        assert read_status(service.root).totals == {
            "executions": 0, "cache_hit_completions": 0,
        }

    def test_fold_tracks_lifecycle_and_totals(self, tmp_path):
        """One pass: an executed spec, a cache hit and a failure.  Each
        key folds to its last outcome, and the status totals sum the
        per-key counts."""
        service = _service(tmp_path, slots=3)
        fresh = _spec("pr", "pipm")
        published = _spec("pr", "native")
        poison = _poison_spec()
        run_spec(published, service.cache_dir)  # result already stored
        for spec in (fresh, published, poison):
            submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        outcomes = SweepJournal(service.cache_dir).outcomes()
        ran = outcomes[fresh.key()]
        assert ran.status == "ok" and ran.label == fresh.label()
        assert (ran.executions, ran.cache_hits) == (1, 0)
        hit = outcomes[published.key()]
        assert hit.succeeded and hit.cache_hit
        assert (hit.executions, hit.cache_hits) == (0, 1)
        bad = outcomes[poison.key()]
        assert bad.status == "failed"
        assert (bad.executions, bad.cache_hits) == (0, 0)
        status = read_status(service.root)
        assert status.totals == {
            "executions": 1, "cache_hit_completions": 1,
        }
        assert status.parked == 1

    def test_empty_string_error_survives_fold(self, tmp_path):
        """A failure journalled with an empty message keeps its error
        field and stays a failure: the service re-runs the spec rather
        than resuming past it as done."""
        service = _service(tmp_path)
        spec = _spec()
        journal = SweepJournal(service.cache_dir)
        journal.record(spec.key(), spec.label(), "failed", error="")
        assert journal.outcomes()[spec.key()].error == ""
        submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        entry = journal.outcomes()[spec.key()]
        assert entry.succeeded and entry.error is None
        assert entry.executions == 1
        assert spec.key() in ResultStore(service.cache_dir)

    def test_torn_tail_is_skipped(self, tmp_path):
        """A line torn by a writer that died mid-append is skipped: a
        restarted service still sees the spec done and counts only
        whole lines."""
        service = _service(tmp_path)
        spec = _spec()
        submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        journal = SweepJournal(service.cache_dir)
        with open(journal.path, "ab") as fh:
            fh.write(b'{"event":"spec","key":"k2","status":"ok","cach')
        assert set(journal.outcomes()) == {spec.key()}
        submit_spec(service.root, spec)
        lines = []
        again = _service(tmp_path)
        assert again.run(exit_when_idle=True, progress=lines.append) == 0
        assert any("[skip]" in line for line in lines)
        assert journal.outcomes()[spec.key()].executions == 1
        assert read_status(again.root).totals == {
            "executions": 1, "cache_hit_completions": 0,
        }

    def test_missing_journal_folds_empty(self, tmp_path):
        """A service started on an empty cache publishes zero totals
        and creates no journal: only finished work writes to it."""
        service = _service(tmp_path)
        journal = SweepJournal(service.cache_dir)
        assert journal.outcomes() == {} and journal.epochs() == 0
        assert service.run(exit_when_idle=True) == 0
        assert not journal.path.exists()
        status = read_status(service.root)
        assert status.state == "drained" and status.spool_backlog == 0
        assert status.totals == {
            "executions": 0, "cache_hit_completions": 0,
        }


class TestStatus:
    def test_round_trip_and_liveness(self, tmp_path):
        import os

        status = ServiceStatus(
            pid=os.getpid(), state="running", tick=9,
            spool_backlog=2, in_flight=1, parked=1, totals={"done": 4},
        )
        from repro.serve.status import write_status

        write_status(tmp_path, status)
        loaded = read_status(tmp_path)
        assert loaded == status
        assert pid_alive(loaded.pid)
        assert not pid_alive(-1)
        text = format_status(loaded, alive=True)
        assert "running" in text and "alive" in text and "done=4" in text
        assert "1 parked" in text

    def test_dead_without_drain_is_called_out(self):
        status = ServiceStatus(pid=1, state="running", tick=1)
        assert "DEAD" in format_status(status, alive=False)
        drained = ServiceStatus(pid=1, state="drained", tick=1)
        assert "exited after drain" in format_status(drained, alive=False)

    def test_missing_status_reads_none(self, tmp_path):
        assert read_status(tmp_path / "nowhere") is None


class TestExperimentService:
    def test_rejects_bad_policy_at_start_up(self, tmp_path):
        with pytest.raises(ValueError, match="slots"):
            _service(tmp_path, slots=0)
        with pytest.raises(ValueError, match="retries"):
            _service(tmp_path, retries=-1)

    def test_submit_is_idempotent_by_content_key(self, tmp_path):
        spec = _spec()
        first = submit_spec(tmp_path, spec)
        second = submit_spec(tmp_path, spec)
        assert first == second
        assert len(list((tmp_path / "spool").glob("*.json"))) == 1

    def test_exit_when_idle_completes_submissions(self, tmp_path):
        service = _service(tmp_path, slots=2)
        specs = [_spec("pr", "pipm"), _spec("pr", "native")]
        for spec in specs:
            submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        outcomes = SweepJournal(service.cache_dir).outcomes()
        for spec in specs:
            entry = outcomes[spec.key()]
            assert entry.succeeded
            assert entry.executions == 1
        store = ResultStore(service.cache_dir)
        assert all(spec.key() in store for spec in specs)
        assert not _spooled(service)
        status = read_status(service.root)
        assert status.state == "drained"
        assert status.totals == {
            "executions": 2, "cache_hit_completions": 0,
        }
        # The sweep journal under the cache is the only journal.
        assert sorted(p.name for p in service.root.iterdir()) == [
            "cache", "rejected", "spool", "status.json",
        ]

    def test_idle_passes_append_nothing_and_never_refold(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.service as service_mod

        service = _service(tmp_path)
        submit_spec(service.root, _spec())
        assert service.run(exit_when_idle=True) == 0
        journal = SweepJournal(service.cache_dir)
        before = journal.path.read_bytes()

        folds = []
        real_outcomes = SweepJournal.outcomes

        def counting_outcomes(self):
            folds.append(self.path)
            return real_outcomes(self)

        monkeypatch.setattr(SweepJournal, "outcomes", counting_outcomes)
        idle = _service(tmp_path)
        naps = []

        def nap(seconds):
            naps.append(seconds)
            if len(naps) == 3:
                idle.request_drain()

        monkeypatch.setattr(service_mod, "sleep", nap)
        assert idle.run() == 0
        assert naps == [service_mod.IDLE_POLL_S] * 3
        assert journal.path.read_bytes() == before
        assert len(folds) == 1  # the start-up fold; none per idle pass
        status = read_status(idle.root)
        assert status.state == "drained" and status.tick == 3
        assert status.totals == {
            "executions": 1, "cache_hit_completions": 0,
        }

    def test_resubmitting_done_spec_is_a_cache_hit(self, tmp_path):
        service = _service(tmp_path)
        spec = _spec()
        submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        submit_spec(service.root, spec)
        lines = []
        again = _service(tmp_path)
        assert again.run(exit_when_idle=True, progress=lines.append) == 0
        entry = SweepJournal(again.cache_dir).outcomes()[spec.key()]
        assert entry.executions == 1          # executed exactly once, ever
        assert any("[skip]" in line for line in lines)  # done from cache
        assert not _spooled(again)

    def test_sweep_and_serve_share_one_journal(self, tmp_path):
        spec = _spec()
        service = _service(tmp_path)
        SweepRunner([spec], service.cache_dir).run()
        submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        entry = SweepJournal(service.cache_dir).outcomes()[spec.key()]
        assert entry.executions == 1          # the sweep's run, not rerun
        assert read_status(service.root).totals["executions"] == 1
        assert not _spooled(service)

    def test_recovery_completes_published_result_without_rerun(
        self, tmp_path, monkeypatch
    ):
        """Kill after ResultStore.put but before the journal line.

        The spec is still in the spool and its result is in the store,
        but the journal has no outcome for it.
        """
        import repro.sweep.runner as runner_mod

        calls = []
        real_simulate = runner_mod.simulate

        def counting_simulate(*args, **kwargs):
            calls.append(1)
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate", counting_simulate)
        spec = _spec()
        service = _service(tmp_path, slots=1)  # in-process: calls count
        run_spec(spec, service.cache_dir)      # the killed worker's run
        journal = SweepJournal(service.cache_dir)
        journal.begin(1)                       # the killed daemon's batch
        submit_spec(service.root, spec)
        assert service.run(exit_when_idle=True) == 0
        assert len(calls) == 1                 # the one execution, still
        entry = journal.outcomes()[spec.key()]
        assert entry.succeeded and entry.cache_hit
        assert entry.executions == 0
        assert entry.cache_hits == 1
        assert not _spooled(service)

    def test_recovery_resumes_pending_spec_exactly_once(self, tmp_path):
        """Kill mid-run, before any result: restart runs it once."""
        spec = _spec()
        service = _service(tmp_path)
        submit_spec(service.root, spec)
        journal = SweepJournal(service.cache_dir)
        journal.begin(1)  # the killed daemon's batch, no outcome
        assert service.run(exit_when_idle=True) == 0
        entry = journal.outcomes()[spec.key()]
        assert entry.succeeded and entry.executions == 1
        assert spec.key() in ResultStore(service.cache_dir)
        assert not _spooled(service)

    @pytest.mark.parametrize("slots", [1, 2])
    def test_poison_spec_parked_without_stalling_healthy_work(
        self, tmp_path, slots
    ):
        service = _service(tmp_path, slots=slots)
        poison = _poison_spec()
        healthy = _spec()
        submit_spec(service.root, poison)
        submit_spec(service.root, healthy)
        assert service.run(exit_when_idle=True) == 0
        outcomes = SweepJournal(service.cache_dir).outcomes()
        assert outcomes[healthy.key()].succeeded
        bad = outcomes[poison.key()]
        assert bad.status == "failed"
        assert "scheme_kwargs_marker" in bad.error  # attribution kept
        assert (service.rejected_dir / f"{poison.key()}.json").exists()
        assert poison.key() not in ResultStore(service.cache_dir)
        assert not _spooled(service)
        assert read_status(service.root).parked == 1

    def test_drain_stops_admitting_and_exits_zero(self, tmp_path):
        service = _service(tmp_path)
        submit_spec(service.root, _spec())
        service.request_drain()
        assert service.run() == 0
        # Never run: the submission is still spooled for later.
        assert len(_spooled(service)) == 1
        assert not SweepJournal(service.cache_dir).path.exists()
        status = read_status(service.root)
        assert status.state == "drained" and status.spool_backlog == 1

    def test_invalid_submission_moved_aside_and_journalled(self, tmp_path):
        service = _service(tmp_path)
        service.spool.mkdir(parents=True)
        (service.spool / "garbage.json").write_text("{not json")
        assert service.run(exit_when_idle=True) == 0
        assert (service.rejected_dir / "garbage.json").exists()
        assert not _spooled(service)
        entry = SweepJournal(service.cache_dir).outcomes()["garbage"]
        assert entry.status == "failed"
        assert "JSONDecodeError" in entry.error
