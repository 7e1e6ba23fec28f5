"""Experiment harness: the entry point examples and benches build on.

``run_experiment`` generates (or reuses) a workload trace and simulates it
under one scheme; ``compare_schemes`` runs a list of schemes over one
workload and reports results keyed by scheme name, with Native first so
speedups can be normalized the way every figure in the paper is.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

from ..config import SystemConfig
from ..policies import make_scheme
from ..policies.base import MigrationScheme
from ..workloads.registry import generate
from ..workloads.trace import WorkloadScale, WorkloadTrace
from .engine import simulate
from .results import SimulationResult

SchemeLike = Union[str, MigrationScheme]

#: The paper's Fig. 10 scheme order.
DEFAULT_SCHEMES = (
    "native",
    "nomad",
    "memtis",
    "hemem",
    "os-skew",
    "hw-static",
    "pipm",
    "local-only",
)


def _as_scheme(scheme: SchemeLike) -> MigrationScheme:
    if isinstance(scheme, MigrationScheme):
        return scheme
    return make_scheme(scheme)


def run_experiment(
    workload: Union[str, WorkloadTrace],
    scheme: SchemeLike,
    config: Optional[SystemConfig] = None,
    scale: Optional[WorkloadScale] = None,
    **system_kwargs,
) -> SimulationResult:
    """Simulate one (workload, scheme) pair."""
    if config is None:
        config = SystemConfig.scaled()
    if isinstance(workload, str):
        trace = generate(
            workload,
            num_hosts=config.num_hosts,
            scale=scale,
            cores_per_host=config.cores_per_host,
        )
    else:
        trace = workload
    return simulate(trace, _as_scheme(scheme), config, **system_kwargs)


def compare_schemes(
    workload: Union[str, WorkloadTrace],
    schemes: Iterable[SchemeLike] = DEFAULT_SCHEMES,
    config: Optional[SystemConfig] = None,
    scale: Optional[WorkloadScale] = None,
    cache_dir: Optional[str] = None,
    **system_kwargs,
) -> Dict[str, SimulationResult]:
    """Run several schemes over the same trace; returns ``{name: result}``.

    The trace is generated once and replayed for every scheme so the
    comparison is apples-to-apples (the paper's methodology).  Results are
    keyed by :attr:`MigrationScheme.name` — the same normalization every
    consumer (:func:`speedups_over_native`, the benches, the sweep runner)
    uses — and duplicate names are rejected instead of silently keeping
    only the last run.

    With ``cache_dir`` set and ``workload`` given by name, each
    (workload, scheme) run goes through the content-addressed result
    cache of :mod:`repro.sweep`, so results are shared with ``python -m
    repro sweep`` and the figure benches.
    """
    if config is None:
        config = SystemConfig.scaled()
    schemes = list(schemes)
    instances = [_as_scheme(scheme) for scheme in schemes]
    names = [instance.name for instance in instances]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValueError(
            f"duplicate scheme names {dupes}; results are keyed by "
            f"MigrationScheme.name and would silently overwrite"
        )
    all_named = all(isinstance(s, str) for s in schemes)
    if cache_dir is not None and not (isinstance(workload, str) and all_named):
        raise ValueError(
            "cache_dir needs workload and schemes given by name; a "
            "pre-built trace or scheme instance has no cacheable spec"
        )
    if cache_dir is not None:
        # Route through the shared spec cache (lazy import: repro.sweep
        # imports this module's siblings).
        from ..sweep import ExperimentSpec, run_spec

        results = {}
        for instance in instances:
            spec = ExperimentSpec.build(
                workload=workload,
                scheme=instance.name,
                config=config,
                scale=scale,
                system_kwargs=system_kwargs,
            )
            results[instance.name] = run_spec(spec, cache_dir).result
        return results
    if isinstance(workload, str):
        trace = generate(
            workload,
            num_hosts=config.num_hosts,
            scale=scale,
            cores_per_host=config.cores_per_host,
        )
    else:
        trace = workload
    results = {}
    for instance in instances:
        results[instance.name] = simulate(trace, instance, config,
                                          **system_kwargs)
    return results


def speedups_over_native(
    results: Dict[str, SimulationResult],
    baseline: str = "native",
) -> Dict[str, float]:
    """Per-scheme execution-time speedup vs the ``baseline`` run.

    ``results`` must be keyed by :attr:`MigrationScheme.name` (what
    :func:`compare_schemes` produces).  A missing baseline raises a
    :class:`ValueError` naming the keys that *are* present instead of a
    bare KeyError deep in a figure script.
    """
    if baseline not in results:
        raise ValueError(
            f"speedups need a {baseline!r} baseline run; available "
            f"schemes: {sorted(results) or '(none)'}"
        )
    base = results[baseline]
    return {
        name: result.speedup_over(base)
        for name, result in results.items()
        if name != baseline
    }
