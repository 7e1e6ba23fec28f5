"""Shared infrastructure for the figure/table benchmarks.

Every bench regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index).  Simulation results are memoized in
the content-addressed cache under ``benchmarks/.cache/`` shared with
``python -m repro sweep``: each entry is one atomically-written file
keyed by a hash of the *complete* experiment spec (workload, scheme +
scheme kwargs, scale, full serialized SystemConfig including faults, and
system kwargs), so config ablations can never read a stale base-config
result and any number of bench processes can run concurrently.  Warm the
cache in parallel with ``python -m repro sweep --figures`` and the
benches become pure cache reads; invalidate with ``python -m repro sweep
--invalidate`` (or delete ``benchmarks/.cache/``).

Environment knobs:

* ``REPRO_BENCH_SCALE`` — ``tiny`` / ``small`` / ``default`` / ``large``
  (default ``small``): trace size per run.
* ``REPRO_BENCH_WORKLOADS`` — comma-separated subset override.
* ``REPRO_CACHE_DIR`` — cache root override (default
  ``benchmarks/.cache``).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

from repro import SystemConfig, WorkloadScale
from repro.sim.results import SimulationResult
from repro.sweep import (
    ALL_SCHEMES,
    SENSITIVITY_WORKLOADS,
    ExperimentSpec,
    TraceStore,
    run_spec,
)

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", BENCH_DIR / ".cache"))

__all__ = [
    "ALL_SCHEMES", "SENSITIVITY_WORKLOADS", "BENCH_DIR", "RESULTS_DIR",
    "CACHE_DIR", "bench_scale", "bench_scale_name", "bench_workloads",
    "run_cached", "write_output",
]


def bench_scale_name() -> str:
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in WorkloadScale.NAMES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {list(WorkloadScale.NAMES)}"
        )
    return name


def bench_scale() -> WorkloadScale:
    return WorkloadScale.named(bench_scale_name())


def bench_workloads() -> List[str]:
    override = os.environ.get("REPRO_BENCH_WORKLOADS")
    if override:
        return [w.strip() for w in override.split(",") if w.strip()]
    from repro import workload_names

    return workload_names()


def run_cached(
    workload: str,
    scheme: str,
    config: Optional[SystemConfig] = None,
    tag: str = "base",
    scheme_kwargs: Optional[Dict] = None,
    **system_kwargs,
) -> SimulationResult:
    """Simulate (or fetch) one fully-specified experiment.

    The cache key is a content hash of the complete spec — workload,
    scheme and its kwargs, scale, the entire ``config`` (including any
    fault plan), and ``system_kwargs`` — so two calls share a result
    **iff** every simulation input matches.  ``tag`` is a display label
    only; it no longer affects caching, and forgetting it can no longer
    alias an ablation onto the base configuration's result.

    Traces are shared through the on-disk trace store, so concurrent
    bench processes (and ``python -m repro sweep`` workers) generate
    each trace once.
    """
    del tag  # labels never influence identity
    spec = ExperimentSpec.build(
        workload=workload,
        scheme=scheme,
        config=config,
        scale=bench_scale(),
        scheme_kwargs=scheme_kwargs,
        system_kwargs=system_kwargs,
    )
    return run_spec(spec, CACHE_DIR, trace_store=_TRACES).result


_TRACES = TraceStore(CACHE_DIR)


def write_output(name: str, text: str) -> Path:
    """Persist a bench's table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path
