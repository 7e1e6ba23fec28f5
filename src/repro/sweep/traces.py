"""Shared on-disk trace cache.

Trace synthesis is pure and seeded, but not free — a sweep that fans one
workload's (scheme x config) column across worker processes would otherwise
regenerate the identical trace once per worker.  The store keys traces by
a content hash of everything generation depends on (workload name, host
and core counts, the full :class:`~repro.workloads.trace.WorkloadScale`)
and publishes ``{key}.npz`` archives in :mod:`repro.workloads.export`'s
format atomically, so any number of workers can share one generation.
The sweep runner additionally pre-warms every unique trace before
fanning out simulations, making "generated once" a guarantee rather
than a race whose loser does redundant work.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..workloads.export import load_trace, save_trace
from ..workloads.registry import generate
from ..workloads.trace import WorkloadScale, WorkloadTrace
from .spec import SPEC_VERSION, content_key


class TraceStore:
    """Disk-backed (plus per-process memo) cache of workload traces."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self._memo: Dict[str, WorkloadTrace] = {}

    @staticmethod
    def key_for(
        workload: str,
        num_hosts: int,
        cores_per_host: int,
        scale: WorkloadScale,
    ) -> str:
        return content_key({
            "v": SPEC_VERSION,
            "workload": workload,
            "num_hosts": num_hosts,
            "cores_per_host": cores_per_host,
            "scale": dataclasses.asdict(scale),
        })

    def path_for(self, key: str) -> Path:
        return self.traces_dir / f"{key}.npz"

    # ------------------------------------------------------------------
    def _load(self, key: str) -> Optional[WorkloadTrace]:
        """The archived trace, or ``None`` when it is missing or unreadable
        (a torn or foreign archive, another format version, a malformed
        stream): a miss, regenerated over it."""
        try:
            return load_trace(self.path_for(key))
        except (OSError, EOFError, KeyError, ValueError,
                zipfile.BadZipFile, zlib.error):
            return None

    def _save(self, key: str, trace: WorkloadTrace) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name ends in ``.npz`` so ``np.savez`` appends nothing.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp.npz"
        )
        try:
            os.close(fd)
            save_trace(trace, tmp_name)
            fd = os.open(tmp_name, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def get_or_generate(
        self,
        workload: str,
        num_hosts: int,
        cores_per_host: int,
        scale: WorkloadScale,
    ) -> WorkloadTrace:
        trace, _hit = self.warm(workload, num_hosts, cores_per_host, scale)
        return trace

    def warm(
        self,
        workload: str,
        num_hosts: int,
        cores_per_host: int,
        scale: WorkloadScale,
    ) -> Tuple[WorkloadTrace, bool]:
        """Fetch-or-generate; the bool reports whether it was a cache hit."""
        key = self.key_for(workload, num_hosts, cores_per_host, scale)
        if key in self._memo:
            return self._memo[key], True
        trace = self._load(key)
        if trace is not None:
            self._memo[key] = trace
            return trace, True
        trace = generate(
            workload,
            num_hosts=num_hosts,
            scale=scale,
            cores_per_host=cores_per_host,
        )
        self._save(key, trace)
        self._memo[key] = trace
        return trace, False

    def clear(self) -> int:
        """Delete every cached trace; returns how many were removed.

        Pickled traces (``*.pkl``) from before the ``.npz`` store are
        never read, and go too.
        """
        self._memo.clear()
        removed = 0
        if self.traces_dir.is_dir():
            for pattern in ("*.npz", "*.pkl"):
                for path in self.traces_dir.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def purge_temp(self) -> int:
        """Remove orphaned temp files left by killed/interrupted writers.

        Call with no writers in flight (see ResultStore.purge_temp).
        """
        removed = 0
        if self.traces_dir.is_dir():
            # ``.tmp.npz`` archives, and ``.tmp`` pickles of older stores.
            for path in self.traces_dir.glob(".*.tmp*"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
