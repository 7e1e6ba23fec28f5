"""Hardened sweep runner: crash-isolated, resumable spec execution.

Executes a list of :class:`ExperimentSpec` in two phases:

1. **Trace warm-up** — every *unique* trace key in the matrix is
   generated (or loaded) exactly once into the shared on-disk
   :class:`~repro.sweep.traces.TraceStore`.  Workers in phase 2 then
   load traces from disk instead of re-synthesizing them.
2. **Simulation fan-out** — specs run under a
   :class:`~repro.sweep.supervisor.JobSupervisor`: one supervised
   process per attempt, with a configurable per-job timeout, bounded
   retry with exponential backoff, and crash isolation.  A worker that
   raises, hangs, or is killed by the OS becomes a structured
   :class:`~repro.sweep.supervisor.FailedRun` on the summary instead of
   aborting the sweep.  Each worker checks the content-addressed
   :class:`~repro.sweep.store.ResultStore` first and publishes its
   result atomically, so concurrent workers (and concurrent sweep
   invocations) never corrupt or clobber the cache.

Every per-spec outcome — including failures — is journalled to an
append-only sidecar (:class:`~repro.sweep.journal.SweepJournal`) next to
the result store, so a killed or Ctrl-C'd sweep can be resumed
(``resume=True``): specs the journal shows as completed (and whose
results are present) are skipped; failed or never-attempted specs are
re-attempted.  On KeyboardInterrupt the runner tears its workers down,
removes orphaned cache temp files, and re-raises.

``workers=1`` with no timeout runs everything in-process with no child
processes — the serial reference path (failures are still isolated per
spec).  Because specs are content-hashed and entries are serialized
deterministically, the parallel path produces byte-identical cache files
to the serial one.

Worker-side statistics snapshots are folded into one registry with the
counter/gauge-aware :meth:`~repro.stats.StatRegistry.merge` (summing a
hit *rate* or a ``freq_ghz`` echo across workers would be nonsense).
"""

from __future__ import annotations

import dataclasses
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..policies import make_scheme
from ..sim.engine import simulate
from ..sim.results import SimulationResult
from ..stats import StatRegistry
from .journal import SweepJournal
from .spec import ExperimentSpec
from .store import ResultStore
from .supervisor import FailedRun, Job, JobSupervisor, SupervisorPolicy
from .traces import TraceStore

#: ``SimulationResult.stats`` keys with gauge (non-additive) semantics.
_GAUGE_SUFFIXES = ("_rate", "_fraction")
_GAUGE_KEYS = ("freq_ghz",)


def stat_gauges(stats: Dict[str, float]) -> List[str]:
    """The keys of ``stats`` that must not be summed when aggregating."""
    return [
        key for key in stats
        if key.endswith(_GAUGE_SUFFIXES) or key in _GAUGE_KEYS
    ]


@dataclass(frozen=True)
class RunReport:
    """What one spec execution looked like (for the CLI's per-run lines).

    ``status`` is ``ok`` (ran or cache hit) or ``retried`` (succeeded
    after at least one failed attempt); failed specs never produce a
    report — they produce a :class:`FailedRun` on the summary instead.
    ``attempts == 0`` marks a spec skipped by resume (journalled as
    complete by an earlier invocation).
    """

    key: str
    label: str
    workload: str
    scheme: str
    cache_hit: bool
    elapsed_s: float
    exec_time_ns: float
    status: str = "ok"
    attempts: int = 1


@dataclass
class RunOutcome:
    """A result plus its provenance."""

    result: SimulationResult
    report: RunReport


@dataclass
class SweepSummary:
    """Aggregate of one sweep invocation."""

    reports: List[RunReport] = field(default_factory=list)
    failures: List[FailedRun] = field(default_factory=list)
    trace_reports: List[Tuple[str, bool, float]] = field(default_factory=list)
    wall_s: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return len(self.reports)

    @property
    def hits(self) -> int:
        return sum(1 for r in self.reports if r.cache_hit)

    @property
    def misses(self) -> int:
        return self.runs - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.runs if self.runs else 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def retried(self) -> int:
        """Specs that succeeded only after at least one failed attempt."""
        return sum(1 for r in self.reports if r.status == "retried")

    @property
    def skipped(self) -> int:
        """Specs skipped by resume (journalled complete earlier)."""
        return sum(1 for r in self.reports if r.attempts == 0)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def work_s(self) -> float:
        """Summed per-run wall clock (the serial-equivalent time)."""
        return sum(r.elapsed_s for r in self.reports) + sum(
            t[2] for t in self.trace_reports
        )


def run_spec(
    spec: ExperimentSpec,
    cache_dir: Union[str, Path],
    trace_store: Optional[TraceStore] = None,
) -> RunOutcome:
    """Execute (or fetch) one spec against the shared caches."""
    store = ResultStore(cache_dir)
    started = perf_counter()
    cached = store.get(spec)
    if cached is not None:
        return RunOutcome(
            result=cached,
            report=RunReport(
                key=spec.key(), label=spec.label(),
                workload=spec.workload, scheme=spec.scheme,
                cache_hit=True, elapsed_s=perf_counter() - started,
                exec_time_ns=cached.exec_time_ns,
            ),
        )
    traces = trace_store if trace_store is not None else TraceStore(cache_dir)
    trace = traces.get_or_generate(
        spec.workload,
        num_hosts=spec.config.num_hosts,
        cores_per_host=spec.config.cores_per_host,
        scale=spec.scale,
    )
    scheme = make_scheme(spec.scheme, **spec.scheme_kwargs)
    result = simulate(trace, scheme, spec.config, **spec.system_kwargs)
    elapsed = perf_counter() - started
    store.put(spec, result)
    return RunOutcome(
        result=result,
        report=RunReport(
            key=spec.key(), label=spec.label(),
            workload=spec.workload, scheme=spec.scheme,
            cache_hit=False, elapsed_s=elapsed,
            exec_time_ns=result.exec_time_ns,
        ),
    )


# ----------------------------------------------------------------------
# Supervised workers (top-level so they pickle under any start method).
# ----------------------------------------------------------------------
def _warm_trace_worker(
    args: Tuple[str, int, int, object, str]
) -> Tuple[str, bool, float]:
    workload, num_hosts, cores_per_host, scale, cache_dir = args
    started = perf_counter()
    _trace, hit = TraceStore(cache_dir).warm(
        workload, num_hosts, cores_per_host, scale
    )
    return workload, hit, perf_counter() - started


def _run_spec_worker(
    args: Tuple[ExperimentSpec, str]
) -> Tuple[RunReport, Dict[str, float], List[str]]:
    spec, cache_dir = args
    outcome = run_spec(spec, cache_dir)
    # Per-worker snapshot: counters accumulate across workers, gauges
    # (rates, config echoes) must overwrite on merge.
    registry = StatRegistry()
    registry.add("sweep.runs")
    registry.add("sweep.cache_hits", 1.0 if outcome.report.cache_hit else 0.0)
    registry.add("sweep.sim_seconds", outcome.report.elapsed_s)
    gauges = stat_gauges(outcome.result.stats)
    registry.merge(outcome.result.stats, gauges=gauges)
    return outcome.report, registry.snapshot(), sorted(registry.gauge_keys())


class SweepRunner:
    """Fan a spec matrix across supervised workers (or run it serially)."""

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        cache_dir: Union[str, Path],
        workers: int = 1,
        *,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.25,
        max_backoff_s: Optional[float] = 60.0,
        resume: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        self.specs = list(specs)
        self.cache_dir = str(cache_dir)
        self.workers = workers or (os.cpu_count() or 1)
        self.policy = SupervisorPolicy(
            timeout_s=timeout_s, retries=retries, backoff_s=backoff_s,
            max_backoff_s=max_backoff_s,
        )
        self.policy.validate()
        self.resume = resume

    # ------------------------------------------------------------------
    def _unique_traces(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[Tuple[str, int, int, object, str]]:
        """Trace tasks for specs that will actually simulate.

        Specs whose result is already cached never touch their trace, so
        an all-hits sweep (e.g. the CI smoke's second invocation) warms
        nothing.
        """
        store = ResultStore(self.cache_dir)
        seen = {}
        for spec in specs:
            if spec.key() in store:
                continue
            seen.setdefault(
                spec.trace_key(),
                (
                    spec.workload,
                    spec.config.num_hosts,
                    spec.config.cores_per_host,
                    spec.scale,
                    self.cache_dir,
                ),
            )
        return list(seen.values())

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepSummary:
        say = progress or (lambda _line: None)
        summary = SweepSummary()
        registry = StatRegistry()
        started = perf_counter()
        journal = SweepJournal(self.cache_dir)
        try:
            todo = self._resume_filter(summary, journal, say)
            journal.begin(len(todo))
            if self.workers <= 1 and self.policy.timeout_s is None:
                self._run_serial(todo, summary, registry, journal, say)
            else:
                self._run_supervised(todo, summary, registry, journal, say)
        except KeyboardInterrupt:
            # Workers are already down (supervisor teardown / pool
            # shutdown); whatever they were mid-publish is an orphan.
            self._purge_temps(say)
            raise
        summary.wall_s = perf_counter() - started
        summary.stats = registry.snapshot()
        return summary

    # ------------------------------------------------------------------
    def _resume_filter(
        self,
        summary: SweepSummary,
        journal: SweepJournal,
        say,
    ) -> List[ExperimentSpec]:
        """Drop specs an earlier invocation completed (``resume=True``).

        A spec is skipped only when the journal's last word on it is a
        success *and* its result file is actually present — a journal
        that outlived a cleared cache falls back to re-running.
        """
        if not self.resume:
            return list(self.specs)
        outcomes = journal.outcomes()
        store = ResultStore(self.cache_dir)
        todo: List[ExperimentSpec] = []
        for spec in self.specs:
            key = spec.key()
            entry = outcomes.get(key)
            if entry is None or not entry.succeeded or key not in store:
                todo.append(spec)
                continue
            record = store.get_record(key) or {}
            exec_ns = float(
                (record.get("result") or {}).get("exec_time_ns", 0.0)
            )
            report = RunReport(
                key=key, label=spec.label(),
                workload=spec.workload, scheme=spec.scheme,
                cache_hit=True, elapsed_s=0.0, exec_time_ns=exec_ns,
                status="ok", attempts=0,
            )
            self._note(summary, report, say)
        return todo

    def _purge_temps(self, say) -> None:
        removed = ResultStore(self.cache_dir).purge_temp()
        removed += TraceStore(self.cache_dir).purge_temp()
        if removed:
            say(f"  [clean] removed {removed} orphaned temp file(s)")

    # ------------------------------------------------------------------
    def _note(self, summary: SweepSummary, report: RunReport, say) -> None:
        summary.reports.append(report)
        if report.attempts == 0:
            state = "skip"
        elif report.status == "retried":
            state = "rtry"
        elif report.cache_hit:
            state = "hit "
        else:
            state = "run "
        say(f"  [{state}] {report.label:<48} {report.elapsed_s:7.2f}s")

    def _note_failure(
        self,
        summary: SweepSummary,
        failure: FailedRun,
        journal: SweepJournal,
        say,
    ) -> None:
        summary.failures.append(failure)
        journal.record(
            failure.key, failure.label, failure.status,
            attempts=failure.attempts, error=failure.error,
        )
        reason = failure.error.strip().splitlines()
        tail = reason[-1] if reason else failure.status
        say(f"  [FAIL] {failure.label:<48} {failure.elapsed_s:7.2f}s  "
            f"{failure.status}: {tail}")

    def _note_success(
        self,
        summary: SweepSummary,
        report: RunReport,
        journal: SweepJournal,
        say,
    ) -> None:
        journal.record(
            report.key, report.label, report.status,
            attempts=report.attempts, cache_hit=report.cache_hit,
        )
        self._note(summary, report, say)

    # ------------------------------------------------------------------
    def _run_serial(self, todo, summary, registry, journal, say) -> None:
        traces = TraceStore(self.cache_dir)
        for workload, hosts, cores, scale, _dir in self._unique_traces(todo):
            t0 = perf_counter()
            try:
                _trace, hit = traces.warm(workload, hosts, cores, scale)
            except Exception:
                # The spec(s) needing this trace will fail with the full
                # traceback below; don't abort the other workloads.
                say(f"  [FAIL] trace {workload}")
                continue
            summary.trace_reports.append(
                (workload, hit, perf_counter() - t0)
            )
        for spec in todo:
            attempt = 0
            first_started = perf_counter()
            while True:
                attempt += 1
                try:
                    outcome = run_spec(spec, self.cache_dir,
                                       trace_store=traces)
                except KeyboardInterrupt:
                    raise
                except Exception:
                    if attempt <= self.policy.retries:
                        sleep(self.policy.backoff_for(attempt + 1))
                        continue
                    self._note_failure(
                        summary,
                        FailedRun(
                            key=spec.key(), label=spec.label(),
                            status="failed", attempts=attempt,
                            error=traceback.format_exc(),
                            elapsed_s=perf_counter() - first_started,
                        ),
                        journal, say,
                    )
                    break
                report = outcome.report
                if attempt > 1:
                    report = dataclasses.replace(
                        report, status="retried", attempts=attempt,
                        elapsed_s=perf_counter() - first_started,
                    )
                registry.add("sweep.runs")
                registry.add("sweep.cache_hits",
                             1.0 if report.cache_hit else 0.0)
                registry.add("sweep.sim_seconds", report.elapsed_s)
                registry.merge(
                    outcome.result.stats,
                    gauges=stat_gauges(outcome.result.stats),
                )
                self._note_success(summary, report, journal, say)
                break

    def _run_supervised(self, todo, summary, registry, journal, say) -> None:
        # Phase 1: each unique trace generated exactly once, in one-shot
        # supervised children (short, CPU-bound, no timeout or retry).
        # Unlike a process pool's workers, which block forever on their
        # task queue once the parent is SIGKILLed, a child exits when its
        # one task is done, so a killed sweep or daemon leaks nothing.
        warmer = JobSupervisor(_warm_trace_worker, slots=self.workers)
        warm = warmer.run([
            Job(key=task[0], label=task[0], payload=task)
            for task in self._unique_traces(todo)
        ])
        try:
            for outcome in warm:
                if not outcome.ok:
                    continue  # surfaces as a spec failure in phase 2
                workload, hit, elapsed = outcome.result
                summary.trace_reports.append((workload, hit, elapsed))
                state = "trace hit" if hit else "trace gen"
                say(f"  [{state}] {workload:<43} {elapsed:7.2f}s")
        finally:
            warm.close()
        # Phase 2: supervised fan-out — crash isolation, timeout, retry.
        supervisor = JobSupervisor(
            _run_spec_worker, slots=self.workers, policy=self.policy
        )
        jobs = [
            Job(key=spec.key(), label=spec.label(),
                payload=(spec, self.cache_dir))
            for spec in todo
        ]
        outcomes = supervisor.run(jobs)
        try:
            for outcome in outcomes:
                if not outcome.ok:
                    self._note_failure(summary, outcome.failure, journal, say)
                    continue
                report, snapshot, gauges = outcome.result
                if outcome.attempts > 1:
                    report = dataclasses.replace(
                        report, status="retried", attempts=outcome.attempts,
                    )
                registry.merge(snapshot, gauges=gauges)
                self._note_success(summary, report, journal, say)
        finally:
            # Deterministic teardown even when the consumer loop dies
            # (KeyboardInterrupt, a raising progress callback, ...).
            outcomes.close()
