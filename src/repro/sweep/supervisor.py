"""Crash-isolating job supervisor: process-per-job with timeout and retry.

``concurrent.futures.ProcessPoolExecutor`` is the wrong substrate for a
sweep that must survive misbehaving workers: it offers no per-job
timeout, a hung worker occupies its slot forever, and a worker killed by
the OS (OOM, SIGKILL) poisons the *entire* pool — every outstanding
future raises ``BrokenProcessPool`` and all in-flight work is lost.

The :class:`JobSupervisor` instead spawns **one process per attempt** and
supervises it directly:

* a worker that **raises** reports the traceback over a pipe and becomes
  a :class:`FailedRun` (status ``failed``) — other jobs are unaffected;
  so does a result the parent cannot unpickle;
* a worker that **hangs** past the per-job timeout is terminated
  (SIGTERM, then SIGKILL after a grace period) and becomes a
  :class:`FailedRun` (status ``timeout``);
* a worker that **dies silently** (OOM-killed, segfault) is detected by
  pipe EOF + exit code and attributed to the delivering signal;
* every failure mode is retried up to ``policy.retries`` times with
  exponential backoff before the failure is final.

Outcomes are yielded as they complete, so callers can journal each one
immediately — a supervisor killed mid-sweep loses at most the jobs still
in flight, never the ones already yielded.

Concurrency is bounded by ``slots``; process startup uses the ``fork``
context where available so workers inherit the parent's (possibly
monkeypatched) module state — which is also what lets tests inject
hangs/crashes without pickling anything.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from time import monotonic, sleep
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: How long a terminated worker gets to exit before escalating to SIGKILL.
_TERM_GRACE_S = 2.0

#: Idle poll bound: also the responsiveness of deadline enforcement when
#: no pipe traffic arrives.
_MAX_WAIT_S = 0.2


@dataclass(frozen=True)
class SupervisorPolicy:
    """Per-job failure policy: timeout, bounded retry, capped backoff.

    Exponential backoff is capped at ``max_backoff_s`` so a deep retry
    budget cannot grow the delay without bound.
    """

    timeout_s: Optional[float] = None  # None = never time a job out
    retries: int = 0  # re-attempts after the first failure
    backoff_s: float = 0.25  # base delay; doubles per re-attempt
    max_backoff_s: Optional[float] = 60.0  # cap on the doubled delay

    def validate(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.max_backoff_s is not None and self.max_backoff_s <= 0:
            raise ValueError("max_backoff_s must be positive (or None)")

    def backoff_for(self, attempt: int) -> float:
        """Delay before re-attempt number ``attempt`` (2, 3, ...)."""
        delay = self.backoff_s * (2 ** max(0, attempt - 2))
        if self.max_backoff_s is not None:
            delay = min(delay, self.max_backoff_s)
        return delay


@dataclass(frozen=True)
class Job:
    """One unit of work: an opaque payload plus identity for reporting."""

    key: str
    label: str
    payload: Any


@dataclass(frozen=True)
class FailedRun:
    """Structured record of a job that exhausted its attempts."""

    key: str
    label: str
    status: str  # "failed" (raised / died) or "timeout" (hung)
    attempts: int
    error: str  # traceback tail or exit-signal attribution
    elapsed_s: float  # wall clock from first launch to final failure


@dataclass
class JobOutcome:
    """What the supervisor has to say about one job."""

    key: str
    label: str
    attempts: int
    result: Any = None  # the worker's return value, when it succeeded
    failure: Optional[FailedRun] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class _Attempt:
    """Book-keeping for one in-flight child process."""

    __slots__ = ("job", "attempt", "process", "conn", "deadline",
                 "first_started")

    def __init__(self, job: Job, attempt: int, process, conn,
                 deadline: Optional[float], first_started: float) -> None:
        self.job = job
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.deadline = deadline
        self.first_started = first_started


def _child_entry(worker: Callable[[Any], Any], payload: Any, conn) -> None:
    """Run ``worker`` and report ``("ok", result)`` or ``("error", tb)``."""
    try:
        result = worker(payload)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    finally:
        conn.close()


class JobSupervisor:
    """Run jobs through ``worker`` in supervised child processes."""

    def __init__(
        self,
        worker: Callable[[Any], Any],
        slots: int = 1,
        policy: Optional[SupervisorPolicy] = None,
        mp_context=None,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.worker = worker
        self.slots = slots
        self.policy = policy or SupervisorPolicy()
        self.policy.validate()
        if mp_context is None:
            try:
                mp_context = mp.get_context("fork")
            except ValueError:  # platforms without fork
                mp_context = mp.get_context()
        self._ctx = mp_context

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> Iterator[JobOutcome]:
        """Yield one :class:`JobOutcome` per job, in completion order.

        The generator owns the child processes: closing it early (or an
        exception in the consumer, e.g. KeyboardInterrupt) tears every
        in-flight child down before propagating.
        """
        pending: deque = deque((job, 1, monotonic()) for job in jobs)
        delayed: List[tuple] = []  # (ready_at, job, attempt, first_started)
        active: Dict[Any, _Attempt] = {}  # recv-conn -> attempt state
        try:
            while pending or delayed or active:
                now = monotonic()
                if delayed:
                    still: List[tuple] = []
                    for ready_at, job, attempt, first in delayed:
                        if ready_at <= now:
                            pending.append((job, attempt, first))
                        else:
                            still.append((ready_at, job, attempt, first))
                    delayed = still
                while pending and len(active) < self.slots:
                    job, attempt, first = pending.popleft()
                    self._launch(job, attempt, first, active)
                if not active:
                    # Everything runnable is waiting out a backoff.
                    sleep(max(0.0, min(d[0] for d in delayed) - monotonic()))
                    continue
                for outcome in self._reap(active, delayed):
                    yield outcome
        finally:
            self._teardown(active)

    # ------------------------------------------------------------------
    def _launch(self, job: Job, attempt: int, first_started: float,
                active: Dict[Any, _Attempt]) -> None:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_child_entry,
            args=(self.worker, job.payload, send_conn),
            daemon=True,
        )
        process.start()
        # Parent must drop the send end or EOF never arrives on a crash.
        send_conn.close()
        deadline = None
        if self.policy.timeout_s is not None:
            deadline = monotonic() + self.policy.timeout_s
        active[recv_conn] = _Attempt(
            job, attempt, process, recv_conn, deadline, first_started
        )

    def _reap(
        self, active: Dict[Any, _Attempt], delayed: List[tuple]
    ) -> Iterator[JobOutcome]:
        """Wait for pipe traffic or a deadline; settle finished attempts."""
        now = monotonic()
        timeout = _MAX_WAIT_S
        for state in active.values():
            if state.deadline is not None:
                timeout = min(timeout, max(0.0, state.deadline - now))
        for ready_at, _job, _attempt, _first in delayed:
            timeout = min(timeout, max(0.0, ready_at - now))
        ready = connection_wait(list(active), timeout=timeout)
        for conn in ready:
            state = active.pop(conn)
            outcome = self._settle(state)
            if outcome is not None:
                yield outcome
            else:
                self._schedule_retry(state, delayed)
        now = monotonic()
        for conn, state in list(active.items()):
            if state.deadline is not None and now >= state.deadline:
                del active[conn]
                outcome = self._expire(state)
                if outcome is not None:
                    yield outcome
                else:
                    self._schedule_retry(state, delayed)

    # ------------------------------------------------------------------
    def _settle(self, state: _Attempt) -> Optional[JobOutcome]:
        """Handle a readable pipe: a result, a traceback, or EOF (death).

        Returns the final outcome, or ``None`` when the attempt failed
        but the retry budget allows another go (recorded on ``state``).
        """
        job = state.job
        message = None
        error = None
        try:
            message = state.conn.recv()
        except (EOFError, OSError):
            pass  # child died without reporting; attribute below
        except Exception:  # the result arrived but will not unpickle
            error = (
                "worker result could not be read:\n" + traceback.format_exc()
            )
        finally:
            state.conn.close()
        if message is not None and message[0] == "ok":
            # The result is already in hand; a child that lingers past
            # the grace period (atexit hang, stuck destructor) must not
            # block the supervisor — escalate instead of waiting forever.
            state.process.join(_TERM_GRACE_S)
            if state.process.is_alive():
                state.process.terminate()
                state.process.join(_TERM_GRACE_S)
                if state.process.is_alive():
                    state.process.kill()
                    state.process.join()
            return JobOutcome(
                key=job.key, label=job.label, attempts=state.attempt,
                result=message[1],
            )
        state.process.join(_TERM_GRACE_S)
        if message is not None:  # ("error", traceback)
            error = str(message[1])
        elif error is None:
            code = state.process.exitcode
            if code is not None and code < 0:
                try:
                    name = signal.Signals(-code).name
                except ValueError:
                    name = f"signal {-code}"
                error = f"worker killed by {name}"
            else:
                error = (
                    f"worker exited with code {code} without reporting "
                    f"a result"
                )
        return self._fail(state, "failed", error)

    def _expire(self, state: _Attempt) -> Optional[JobOutcome]:
        """Kill a worker that ran past its deadline."""
        process = state.process
        process.terminate()
        process.join(_TERM_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join()
        state.conn.close()
        error = (
            f"worker timed out after {self.policy.timeout_s:.1f}s "
            f"(attempt {state.attempt})"
        )
        return self._fail(state, "timeout", error)

    def _fail(self, state: _Attempt, status: str,
              error: str) -> Optional[JobOutcome]:
        """Final failure -> outcome; retryable failure -> None."""
        if state.attempt <= self.policy.retries:
            return None
        job = state.job
        return JobOutcome(
            key=job.key, label=job.label, attempts=state.attempt,
            failure=FailedRun(
                key=job.key, label=job.label, status=status,
                attempts=state.attempt, error=error,
                elapsed_s=monotonic() - state.first_started,
            ),
        )

    def _schedule_retry(self, state: _Attempt,
                        delayed: List[tuple]) -> None:
        next_attempt = state.attempt + 1
        ready_at = monotonic() + self.policy.backoff_for(next_attempt)
        delayed.append(
            (ready_at, state.job, next_attempt, state.first_started)
        )

    def _teardown(self, active: Dict[Any, _Attempt]) -> None:
        """Kill every in-flight child (interrupt / generator close)."""
        for state in active.values():
            if state.process.is_alive():
                state.process.terminate()
        for state in active.values():
            state.process.join(_TERM_GRACE_S)
            if state.process.is_alive():
                state.process.kill()
                state.process.join()
            try:
                state.conn.close()
            except OSError:
                pass
        active.clear()
