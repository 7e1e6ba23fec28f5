"""Trace export/import.

Generating the GAPBS traversal traces takes seconds at large scales;
saving a generated :class:`~repro.workloads.trace.WorkloadTrace` to an
``.npz`` archive lets sweeps and CI reuse identical inputs (and lets users
replay traces captured elsewhere, Pin-style, as long as they convert to
the record format).  The archive holds each host's stream array as it is
(``stream{host}``, ``(n, 4)`` int64) plus a ``meta_json`` byte array; the
sweep's :class:`~repro.sweep.traces.TraceStore` keeps its traces in it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..mem.address import Region
from .trace import WorkloadTrace

#: format marker stored in every archive
FORMAT_VERSION = 1


def save_trace(trace: WorkloadTrace, path: Union[str, Path]) -> Path:
    """Serialize ``trace`` to a compressed ``.npz`` archive."""
    path = Path(path)
    arrays = {
        f"stream{host}": stream for host, stream in enumerate(trace.streams)
    }
    meta = {
        "version": FORMAT_VERSION,
        "name": trace.name,
        "num_hosts": trace.num_hosts,
        "footprint_bytes": trace.footprint_bytes,
        "mlp": trace.mlp,
        "read_write_ratio": trace.read_write_ratio,
        "description": trace.description,
        "regions": [
            {"name": r.name, "start": r.start, "size": r.size}
            for r in trace.regions
        ],
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
    # np.savez appends .npz if missing.
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_trace(path: Union[str, Path]) -> WorkloadTrace:
    """Load a trace previously written by :func:`save_trace`.

    Each stream array goes to :class:`WorkloadTrace` as read, which
    rejects one that is not ``(n, 4)`` integers.
    """
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["meta_json"]).decode())
        if meta.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {meta.get('version')!r}"
            )
        streams = [
            archive[f"stream{host}"] for host in range(meta["num_hosts"])
        ]
    return WorkloadTrace(
        name=meta["name"],
        num_hosts=meta["num_hosts"],
        streams=streams,
        footprint_bytes=meta["footprint_bytes"],
        regions=[Region(**r) for r in meta["regions"]],
        mlp=meta["mlp"],
        read_write_ratio=meta["read_write_ratio"],
        description=meta["description"],
    )
