"""Workload registry: name -> generator, with the Table 1 inventory.

``generate(name, num_hosts, scale)`` builds the shared-heap layout on a
fresh allocator and returns a :class:`WorkloadTrace`.  Generators receive a
:class:`GenContext` carrying the allocator, RNG, and scaling parameters.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from .. import units
from ..mem.address import HeapAllocator
from .trace import WorkloadScale, WorkloadTrace
from . import gapbs, parsec, silo, xsbench

try:  # glibc; other C libraries keep their heap as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass
class GenContext:
    """Everything a workload generator needs."""

    num_hosts: int
    cores_per_host: int
    scale: WorkloadScale
    heap: HeapAllocator
    rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.scale.seed)


@dataclass(frozen=True)
class WorkloadInfo:
    """Table 1 row: suite, paper footprint, and our generator."""

    name: str
    suite: str
    paper_footprint_gb: int
    generator: Callable[[GenContext], WorkloadTrace]
    description: str


WORKLOADS: Dict[str, WorkloadInfo] = {
    info.name: info
    for info in [
        WorkloadInfo("sssp", "GAPBS (Kron)", 48, gapbs.generate_sssp,
                     "Single-source shortest paths"),
        WorkloadInfo("bfs", "GAPBS", 48, gapbs.generate_bfs,
                     "Breadth-first search"),
        WorkloadInfo("pr", "GAPBS", 48, gapbs.generate_pr,
                     "PageRank"),
        WorkloadInfo("cc", "GAPBS", 48, gapbs.generate_cc,
                     "Connected components"),
        WorkloadInfo("bc", "GAPBS", 48, gapbs.generate_bc,
                     "Betweenness centrality"),
        WorkloadInfo("tc", "GAPBS", 48, gapbs.generate_tc,
                     "Triangle counting"),
        WorkloadInfo("xsbench", "XSBench", 42, xsbench.generate_xsbench,
                     "Monte Carlo neutron transport kernel"),
        WorkloadInfo("streamcluster", "PARSEC", 18,
                     parsec.generate_streamcluster, "Data stream clustering"),
        WorkloadInfo("fluidanimate", "PARSEC", 10,
                     parsec.generate_fluidanimate, "Fluid simulation"),
        WorkloadInfo("canneal", "PARSEC", 12, parsec.generate_canneal,
                     "Annealing simulation"),
        WorkloadInfo("bodytrack", "PARSEC", 8, parsec.generate_bodytrack,
                     "Annealed particle filter"),
        WorkloadInfo("tpcc", "Silo", 24, silo.generate_tpcc,
                     "TPC-C (default mix)"),
        WorkloadInfo("ycsb", "Silo", 15, silo.generate_ycsb,
                     "YCSB (R:W 4:1)"),
    ]
}


def workload_names() -> List[str]:
    """All Table 1 workload names, in the paper's order."""
    return list(WORKLOADS)


def generate(
    name: str,
    num_hosts: int = 4,
    scale: WorkloadScale | None = None,
    cores_per_host: int = 4,
    heap_capacity: int | None = None,
) -> WorkloadTrace:
    """Generate the named workload's multi-host trace."""
    try:
        info = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {workload_names()}"
        ) from None
    if scale is None:
        scale = WorkloadScale.default()
    capacity = heap_capacity
    if capacity is None:
        # Generous heap: generators size their regions from the scale.
        capacity = max(4 * scale.footprint_bytes, 16 * units.MB)
    ctx = GenContext(
        num_hosts=num_hosts,
        cores_per_host=cores_per_host,
        scale=scale,
        heap=HeapAllocator(capacity),
    )
    trace = info.generator(ctx)
    # The generators' numpy scratch (several times the footprint for the
    # graph workloads) mostly lands in the C heap, and the heap only
    # shrinks from its top: when one of the trace's arrays is placed above
    # the freed scratch, all of it stays resident for the rest of the run.
    # Where the array lands depends on everything allocated before, down
    # to the length of the checkout's path, so hand the free pages back
    # here and the footprint of a run no longer depends on it.
    if _malloc_trim is not None:
        _malloc_trim(0)
    if trace.num_hosts != num_hosts or len(trace.streams) != num_hosts:
        raise AssertionError(f"{name}: generator produced a malformed trace")
    return trace
