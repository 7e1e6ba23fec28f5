"""The always-on experiment service: a spool front end to the sweep runner.

``python -m repro serve run`` watches a spool directory and feeds what
it finds to :class:`~repro.sweep.runner.SweepRunner`, the runner behind
``repro sweep``.  It keeps no state of its own: the spool holds the
specs still to run, the content-addressed
:class:`~repro.sweep.store.ResultStore` holds the finished ones, and the
runner's :class:`~repro.sweep.journal.SweepJournal` (shared with any
``repro sweep`` on the same cache) records every attempt.

Service root layout::

    <root>/
      spool/        submitted specs, one file each (``serve submit``
                    names them by content key); the service deletes a
                    file once its spec is done
      rejected/     parked files: unparseable, or their spec failed
                    after its retries; resubmit to try again
      cache/        ResultStore, TraceStore and sweep-journal.jsonl
                    (unless an external --cache-dir is shared)
      status.json   health snapshot, refreshed every pass

Each pass that finds work runs up to ``slots`` spool files, in name
order, through ``SweepRunner(..., resume=True)``.  A ``kill -9`` at any
instant leaves every unfinished spec in the spool, so a restart simply
runs it again; a spec whose result was published before the kill is
skipped (journalled done) or completed as a cache hit (journal line
lost), never simulated twice.  SIGTERM/SIGINT let the running batch
finish, then publish a final ``drained`` status and exit 0.
"""

from __future__ import annotations

import json
import os
import signal as signal_module
from pathlib import Path
from time import sleep
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..sweep import ExperimentSpec, SweepJournal, SweepRunner
from ..sweep.store import atomic_write_json
from .status import ServiceStatus, write_status

SPOOL_DIR = "spool"
REJECTED_DIR = "rejected"
CACHE_DIR = "cache"

#: Seconds between spool polls while there is nothing to run.
IDLE_POLL_S = 0.2


def submit_spec(root: Union[str, Path], spec: ExperimentSpec) -> Path:
    """Client side: atomically drop ``spec`` into a service's spool.

    The file is named by content key, so resubmitting an identical spec
    overwrites its own pending submission instead of duplicating it.
    """
    path = Path(root) / SPOOL_DIR / f"{spec.key()}.json"
    atomic_write_json(path, spec.to_dict())
    return path


def _read_spec(path: Path) -> ExperimentSpec:
    """A spool file's spec (bare, or under ``"spec"`` as in reproducers)."""
    data = json.loads(path.read_text())
    return ExperimentSpec.from_dict(
        data.get("spec", data) if isinstance(data, dict) else data
    )


class ExperimentService:
    """Runs spooled specs through :class:`SweepRunner`, batch by batch."""

    def __init__(
        self,
        root: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        slots: int = 2,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        backoff_s: float = 0.25,
        max_backoff_s: float = 30.0,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.root = Path(root)
        self.spool = self.root / SPOOL_DIR
        self.rejected_dir = self.root / REJECTED_DIR
        self.cache_dir = str(cache_dir or self.root / CACHE_DIR)
        self.slots = slots
        self._runner_kwargs = dict(
            workers=slots, timeout_s=timeout_s, retries=retries,
            backoff_s=backoff_s, max_backoff_s=max_backoff_s, resume=True,
        )
        # Reject a bad retry policy at start-up, not at the first batch.
        SweepRunner([], self.cache_dir, **self._runner_kwargs)
        self._drain = False
        self._tick = 0
        self._in_flight = 0
        self._totals: Dict[str, int] = {}

    def request_drain(self) -> None:
        """Finish the running batch, then exit cleanly."""
        self._drain = True

    def run(
        self,
        *,
        exit_when_idle: bool = False,
        install_signals: bool = False,
        progress: Optional[Callable[[str], None]] = None,
    ) -> int:
        """The service loop.  Returns 0 on a clean drain/idle exit."""
        say = progress or (lambda _line: None)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.rejected_dir.mkdir(parents=True, exist_ok=True)
        previous_handlers = (
            self._install_signals() if install_signals else None
        )
        try:
            self._totals = self._fold_totals()
            while not self._drain:
                self._tick += 1
                specs, files = self._take_batch(say)
                if specs:
                    self._run_batch(specs, files, say)
                    continue
                self._publish()
                if exit_when_idle:
                    break
                sleep(IDLE_POLL_S)
        finally:
            if previous_handlers is not None:
                self._restore_signals(previous_handlers)
        self._publish("drained")
        say(f"drained after {self._tick} pass(es)")
        return 0

    def _install_signals(self):
        previous = {}

        def _on_signal(_signum, _frame):
            self._drain = True

        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            previous[sig] = signal_module.signal(sig, _on_signal)
        return previous

    def _restore_signals(self, previous) -> None:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)

    # -- one pass --------------------------------------------------------
    def _spooled(self) -> List[Path]:
        return sorted(self.spool.glob("*.json"))

    def _take_batch(
        self, say
    ) -> Tuple[List[ExperimentSpec], Dict[str, List[Path]]]:
        """Up to ``slots`` distinct specs from the spool, in name order.

        Also returns the spool files holding each spec's key.  A file that
        does not parse is parked on the spot, with its error journalled
        under the file's stem.
        """
        specs: List[ExperimentSpec] = []
        files: Dict[str, List[Path]] = {}
        for path in self._spooled():
            try:
                spec = _read_spec(path)
            except Exception as exc:
                SweepJournal(self.cache_dir).record(
                    path.stem, path.name, "failed", error=repr(exc)
                )
                self._park(path, say)
                continue
            key = spec.key()
            if key not in files:
                if len(specs) == self.slots:
                    break
                specs.append(spec)
            files.setdefault(key, []).append(path)
        return specs, files

    def _run_batch(
        self,
        specs: List[ExperimentSpec],
        files: Dict[str, List[Path]],
        say,
    ) -> None:
        self._in_flight = len(specs)
        self._publish()
        summary = SweepRunner(
            specs, self.cache_dir, **self._runner_kwargs
        ).run(progress=say)
        for report in summary.reports:
            for path in files.pop(report.key, ()):
                path.unlink(missing_ok=True)
        for failure in summary.failures:
            for path in files.pop(failure.key, ()):
                self._park(path, say)
        self._in_flight = 0
        self._totals = self._fold_totals()
        self._publish()

    def _park(self, path: Path, say) -> None:
        """Move a spool file into ``rejected/`` until it is resubmitted."""
        try:
            os.replace(path, self.rejected_dir / path.name)
        except OSError:
            return  # already gone
        say(f"  [park] {path.name} -> {REJECTED_DIR}/")

    # -- status ----------------------------------------------------------
    def _fold_totals(self) -> Dict[str, int]:
        entries = SweepJournal(self.cache_dir).outcomes().values()
        return {
            "executions": sum(e.executions for e in entries),
            "cache_hit_completions": sum(e.cache_hits for e in entries),
        }

    def _publish(self, state: Optional[str] = None) -> None:
        write_status(self.root, ServiceStatus(
            pid=os.getpid(),
            state=state or ("draining" if self._drain else "running"),
            tick=self._tick,
            spool_backlog=len(self._spooled()),
            in_flight=self._in_flight,
            parked=sum(1 for _ in self.rejected_dir.glob("*.json")),
            totals=self._totals,
        ))
