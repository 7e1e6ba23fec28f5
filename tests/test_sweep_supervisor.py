"""The crash-isolating job supervisor: raise/hang/kill/flaky workers."""

from __future__ import annotations

import atexit
import os
import signal
import time
from pathlib import Path

import pytest

from repro.sweep import FailedRun, Job, JobOutcome, JobSupervisor
from repro.sweep.supervisor import SupervisorPolicy


def _refuse_to_rebuild(text):
    raise RuntimeError(text)


class _Unreadable:
    """Pickles fine in the worker; unpickling in the parent raises."""

    def __reduce__(self):
        return _refuse_to_rebuild, ("result will not unpickle",)


def _worker(payload):
    """Scriptable test worker; fork-inherited, so no pickling needed."""
    mode = payload["mode"]
    if mode == "ok":
        return payload["value"]
    if mode == "raise":
        raise ValueError(f"deliberate failure {payload['value']}")
    if mode == "hang":
        time.sleep(600)
        return "never"
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "flaky":
        marker = Path(payload["marker"])
        if marker.exists():
            return "recovered"
        marker.write_text("attempted")
        raise RuntimeError("first attempt fails")
    if mode == "unreadable":
        return _Unreadable()
    if mode == "linger":
        # Deliver the result, then wedge the interpreter's shutdown: a
        # stuck destructor/atexit hook must not block the supervisor.
        atexit.register(time.sleep, 600)
        return "lingered"
    raise AssertionError(f"unknown mode {mode!r}")


def _job(name, **payload):
    return Job(key=name, label=name, payload=payload)


def _run(jobs, **kwargs):
    policy = SupervisorPolicy(
        timeout_s=kwargs.pop("timeout_s", None),
        retries=kwargs.pop("retries", 0),
        backoff_s=kwargs.pop("backoff_s", 0.01),
    )
    supervisor = JobSupervisor(_worker, policy=policy, **kwargs)
    return {o.key: o for o in supervisor.run(jobs)}


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            SupervisorPolicy(timeout_s=0.0).validate()
        with pytest.raises(ValueError, match="retries"):
            SupervisorPolicy(retries=-1).validate()
        with pytest.raises(ValueError, match="backoff_s"):
            SupervisorPolicy(backoff_s=-0.1).validate()

    def test_backoff_cap_and_jitter_validation(self):
        with pytest.raises(ValueError, match="max_backoff_s"):
            SupervisorPolicy(max_backoff_s=0.0).validate()
        with pytest.raises(ValueError, match="max_backoff_s"):
            SupervisorPolicy(max_backoff_s=-1.0).validate()
        # Backoff is exact: jitter is no knob and no draw takes a token.
        with pytest.raises(TypeError, match="jitter"):
            SupervisorPolicy(jitter=0.2)
        with pytest.raises(TypeError, match="token"):
            SupervisorPolicy().backoff_for(2, token="job-a")

    def test_backoff_doubles_per_reattempt(self):
        policy = SupervisorPolicy(backoff_s=0.5)
        assert policy.backoff_for(2) == 0.5
        assert policy.backoff_for(3) == 1.0
        assert policy.backoff_for(4) == 2.0

    def test_backoff_capped_at_max(self):
        policy = SupervisorPolicy(backoff_s=0.5, max_backoff_s=1.5)
        assert policy.backoff_for(2) == 0.5
        assert policy.backoff_for(3) == 1.0
        assert policy.backoff_for(4) == 1.5
        assert policy.backoff_for(20) == 1.5
        # None disables the cap (the pre-existing unbounded behaviour).
        uncapped = SupervisorPolicy(backoff_s=0.5, max_backoff_s=None)
        assert uncapped.backoff_for(12) == 0.5 * 2 ** 10

    def test_slots_validation(self):
        with pytest.raises(ValueError, match="slots"):
            JobSupervisor(_worker, slots=0)


class TestOutcomes:
    def test_ok_jobs_return_results(self):
        outcomes = _run(
            [_job("a", mode="ok", value=1), _job("b", mode="ok", value=2)],
            slots=2,
        )
        assert outcomes["a"].ok and outcomes["a"].result == 1
        assert outcomes["b"].ok and outcomes["b"].result == 2
        assert all(o.attempts == 1 for o in outcomes.values())

    def test_raising_worker_becomes_failed_run(self):
        outcomes = _run([_job("boom", mode="raise", value=7)])
        outcome = outcomes["boom"]
        assert not outcome.ok
        failure = outcome.failure
        assert isinstance(failure, FailedRun)
        assert failure.status == "failed"
        assert failure.attempts == 1
        # The child's traceback crossed the pipe intact.
        assert "ValueError" in failure.error
        assert "deliberate failure 7" in failure.error

    def test_hanging_worker_times_out(self):
        started = time.monotonic()
        outcomes = _run([_job("stuck", mode="hang")], timeout_s=1.0)
        failure = outcomes["stuck"].failure
        assert failure is not None
        assert failure.status == "timeout"
        assert "timed out after 1.0s" in failure.error
        # Enforced promptly: nowhere near the worker's 600s sleep.
        assert time.monotonic() - started < 30.0

    def test_killed_worker_attributed_to_signal(self):
        outcomes = _run([_job("oom", mode="kill")])
        failure = outcomes["oom"].failure
        assert failure is not None
        assert failure.status == "failed"
        assert "SIGKILL" in failure.error

    def test_flaky_job_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        outcomes = _run(
            [_job("flaky", mode="flaky", marker=str(marker))], retries=1
        )
        outcome = outcomes["flaky"]
        assert outcome.ok
        assert outcome.result == "recovered"
        assert outcome.attempts == 2
        assert marker.exists()

    def test_retries_exhausted_reports_final_attempt_count(self):
        outcomes = _run([_job("boom", mode="raise", value=0)], retries=2)
        failure = outcomes["boom"].failure
        assert failure is not None
        assert failure.attempts == 3

    def test_mixed_batch_isolates_failures(self, tmp_path):
        """One raising and one hung worker must not hurt healthy jobs."""
        jobs = [
            _job("good-1", mode="ok", value="x"),
            _job("bad", mode="raise", value=1),
            _job("stuck", mode="hang"),
            _job("good-2", mode="ok", value="y"),
        ]
        outcomes = _run(jobs, slots=2, timeout_s=2.0)
        assert len(outcomes) == len(jobs)
        assert outcomes["good-1"].result == "x"
        assert outcomes["good-2"].result == "y"
        assert outcomes["bad"].failure.status == "failed"
        assert outcomes["stuck"].failure.status == "timeout"

    def test_unreadable_result_fails_only_its_job(self):
        """A result the parent cannot unpickle fails that job; the sweep
        goes on to the next one."""
        outcomes = _run(
            [_job("bad", mode="unreadable"), _job("good", mode="ok", value=3)],
            slots=1,
        )
        failure = outcomes["bad"].failure
        assert isinstance(failure, FailedRun)
        assert failure.status == "failed"
        assert "RuntimeError" in failure.error
        assert "result will not unpickle" in failure.error
        assert outcomes["good"].ok and outcomes["good"].result == 3

    def test_lingering_worker_does_not_block_settle(self):
        """A child that wedges after reporting its result is escalated
        (SIGTERM, then SIGKILL) instead of being joined forever."""
        started = time.monotonic()
        outcomes = _run([_job("zombie", mode="linger")])
        elapsed = time.monotonic() - started
        outcome = outcomes["zombie"]
        assert outcome.ok
        assert outcome.result == "lingered"
        # Bounded by the grace escalation, nowhere near the 600s wedge.
        assert elapsed < 30.0

    def test_outcome_ok_property(self):
        assert JobOutcome(key="k", label="l", attempts=1, result=3).ok
        failed = JobOutcome(
            key="k", label="l", attempts=1,
            failure=FailedRun("k", "l", "failed", 1, "tb", 0.1),
        )
        assert not failed.ok
