"""Append-only sweep journal: per-spec outcomes for checkpoint/resume.

The :class:`~repro.sweep.store.ResultStore` records *successful* results
(one atomic file per spec); it cannot record failures, and a killed sweep
leaves no trace of which specs it had already attempted.  The journal
fills that gap: every spec outcome — ok, cache hit, failure, timeout — is
appended as one JSON line to a sidecar next to the store, so a
``--resume`` invocation can tell "never attempted" from "attempted and
failed" from "done".

Design points:

* **Append-only JSONL.**  One ``os.write`` per entry on an ``O_APPEND``
  descriptor; on POSIX a sub-``PIPE_BUF`` append is a single atomic write,
  so concurrent sweep invocations sharing a cache directory interleave
  whole lines, never bytes.  A torn final line (the writer died mid-write)
  is detected by JSON decode failure and skipped on replay.
* **Last entry wins.**  Replays fold the log into one outcome per spec
  key; a re-attempted spec simply appends a newer entry.  ``begin()``
  marks each sweep invocation so tooling can distinguish attempts made by
  the current invocation from history.  The fold also counts, per key and
  over the whole log, the successful simulations and the cache-hit
  completions, so a duplicate execution shows as ``executions > 1``.
* **One journal per cache directory.**  ``repro sweep`` and
  ``repro serve`` pointed at one cache share this file.  It is never
  rewritten in place, so it needs no compaction: it grows by one line per
  finished attempt, i.e. with work done.
* **No wall-clock timestamps** — the journal stays a pure function of
  what happened, per the determinism contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

#: Journal format version; bump on layout changes.
JOURNAL_VERSION = 1

#: Sidecar filename, next to the ``results/`` directory.
JOURNAL_NAME = "sweep-journal.jsonl"

#: Spec outcome states a journal entry may carry.
STATUSES = ("ok", "retried", "failed", "timeout")

#: The statuses that mean the spec's result was published.
SUCCESS_STATUSES = ("ok", "retried")


@dataclass(frozen=True)
class JournalEntry:
    """One folded per-spec outcome (the last word the journal has)."""

    key: str
    label: str
    status: str  # one of STATUSES
    attempts: int
    cache_hit: bool
    error: Optional[str]  # traceback tail / exit-signal attribution
    run: int  # which begin() epoch recorded it (0 = before any marker)
    executions: int = 0  # successful simulations, whole log
    cache_hits: int = 0  # successful cache-hit completions, whole log

    @property
    def succeeded(self) -> bool:
        return self.status in SUCCESS_STATUSES


class SweepJournal:
    """Append-only per-spec outcome log next to a result cache."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / JOURNAL_NAME

    # -- writing ---------------------------------------------------------
    def _append(self, payload: Dict) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8") + b"\n")
        finally:
            os.close(fd)

    def begin(self, total_specs: int) -> None:
        """Mark the start of one sweep invocation (an epoch boundary)."""
        self._append({
            "v": JOURNAL_VERSION,
            "event": "begin",
            "total_specs": total_specs,
        })

    def record(
        self,
        key: str,
        label: str,
        status: str,
        attempts: int = 1,
        cache_hit: bool = False,
        error: Optional[str] = None,
    ) -> None:
        """Append one spec outcome."""
        if status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {status!r}"
            )
        payload: Dict = {
            "v": JOURNAL_VERSION,
            "event": "spec",
            "key": key,
            "label": label,
            "status": status,
            "attempts": attempts,
            "cache_hit": cache_hit,
        }
        if error is not None:
            # Bounded: keep the tail, which carries the innermost frame
            # and the exception line — the attribution that matters.
            # ``is not None`` (not truthiness): a failure whose message
            # is an empty string still journals its attribution field.
            payload["error"] = error[-2000:]
        self._append(payload)

    # -- reading ---------------------------------------------------------
    def _lines(self) -> Iterator[Dict]:
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                # Torn tail from a writer killed mid-append; the entry is
                # lost but the sweep it described will simply be re-run.
                continue

    def outcomes(self) -> Dict[str, JournalEntry]:
        """Fold the log into the latest outcome per spec key.

        Each entry carries its key's cumulative ``executions`` and
        ``cache_hits`` over every epoch and every writer.
        """
        folded: Dict[str, JournalEntry] = {}
        run = 0
        for payload in self._lines():
            event = payload.get("event")
            if event == "begin":
                run += 1
                continue
            if event != "spec":
                continue
            key = payload.get("key")
            status = payload.get("status")
            if not key or status not in STATUSES:
                continue
            cache_hit = bool(payload.get("cache_hit", False))
            prior = folded.get(key)
            executions = prior.executions if prior else 0
            cache_hits = prior.cache_hits if prior else 0
            if status in SUCCESS_STATUSES:
                if cache_hit:
                    cache_hits += 1
                else:
                    executions += 1
            folded[key] = JournalEntry(
                key=key,
                label=str(payload.get("label", "")),
                status=status,
                attempts=int(payload.get("attempts", 1)),
                cache_hit=cache_hit,
                error=payload.get("error"),
                run=run,
                executions=executions,
                cache_hits=cache_hits,
            )
        return folded

    def epochs(self) -> int:
        """How many ``begin`` markers the log holds."""
        return sum(1 for p in self._lines() if p.get("event") == "begin")

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass
