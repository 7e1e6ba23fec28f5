"""Crash- and concurrency-safe on-disk result store.

One file per result under ``<root>/results/``, named by the spec's
content hash.  Writes go to a temporary file in the same directory and
are published with :func:`os.replace`, which is atomic on POSIX and
Windows: a reader never observes a torn file, and two workers racing on
the same key simply last-write-wins with identical bytes.  Contrast the
old design — one JSON blob read at import time and rewritten wholesale on
every ``put`` — where two concurrent bench processes each clobbered the
other's entries.

Entries are serialized with sorted keys so that the same
:class:`~repro.sim.results.SimulationResult` always produces the same
bytes regardless of which process wrote it; the parallel sweep's output
is byte-identical to the serial path's.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..sim.results import SimulationResult
from .spec import ExperimentSpec

#: Entry format version; bump on layout changes.
STORE_VERSION = 1


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: Path, payload: Dict) -> None:
    """Atomically publish ``payload`` as deterministic (sorted-key) JSON."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    atomic_write_bytes(path, data.encode("utf-8"))


class ResultStore:
    """Content-addressed store of simulation results.

    ``get``/``put`` speak :class:`ExperimentSpec`; the lower-level
    ``get_record``/``put_record`` take the raw content key.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"

    # -- raw key layer ---------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.results_dir / f"{key}.json"

    def get_record(self, key: str) -> Optional[Dict]:
        """The full stored entry, or None if absent/corrupt."""
        path = self.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            # Missing is normal; a torn file cannot happen with atomic
            # publication, but treat any unreadable entry as a miss.
            return None

    def put_record(self, key: str, entry: Dict) -> Path:
        path = self.path_for(key)
        atomic_write_json(path, entry)
        return path

    # -- spec layer ------------------------------------------------------
    def get(self, spec: ExperimentSpec) -> Optional[SimulationResult]:
        entry = self.get_record(spec.key())
        if entry is None or "result" not in entry:
            return None
        return SimulationResult.from_record(entry["result"])

    def put(self, spec: ExperimentSpec, result: SimulationResult) -> Path:
        # Deliberately no timestamps/pids/durations in the entry: a cache
        # file is a pure function of its spec, so the parallel sweep's
        # files are byte-identical to the serial path's (verifiable with
        # a plain diff).
        entry = {
            "v": STORE_VERSION,
            "spec": spec.to_dict(),
            "result": result.to_record(),
        }
        return self.put_record(spec.key(), entry)

    # -- maintenance -----------------------------------------------------
    def keys(self) -> Iterator[str]:
        if not self.results_dir.is_dir():
            return iter(())
        return (p.stem for p in sorted(self.results_dir.glob("*.json")))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def purge_temp(self) -> int:
        """Remove orphaned temp files left by killed/interrupted writers.

        Atomic publication means a temp file only survives when its
        writer died between ``mkstemp`` and ``os.replace`` (e.g. SIGKILL,
        Ctrl-C in a worker).  Call with no writers in flight — the sweep
        runner does so after tearing its workers down on interrupt.
        """
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob(".*.tmp"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
