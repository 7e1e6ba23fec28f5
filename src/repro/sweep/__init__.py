"""Parallel figure-sweep runner and the content-addressed result cache.

The evaluation is a (workload x scheme x config-variant) matrix; this
package fans it across supervised worker processes
(``python -m repro sweep``) on top of two shared on-disk caches:

* :class:`ResultStore` — one atomic file per result, keyed by a content
  hash of the complete :class:`ExperimentSpec` (workload, scheme +
  kwargs, scale, full serialized SystemConfig including faults, system
  kwargs).  Safe under any number of concurrent writers.
* :class:`TraceStore` — seeded workload traces, generated once and
  shared by every worker.

See EXPERIMENTS.md ("Sweep runner") for the cache layout and CLI usage.
"""

from .matrix import (
    ALL_SCHEMES,
    SENSITIVITY_WORKLOADS,
    VARIANTS,
    build_matrix,
)
from .journal import JournalEntry, SweepJournal
from .runner import (
    RunOutcome,
    RunReport,
    SweepRunner,
    SweepSummary,
    run_spec,
    stat_gauges,
)
from .spec import SPEC_VERSION, ExperimentSpec, canonical_json, content_key
from .store import ResultStore, atomic_write_bytes, atomic_write_json
from .supervisor import (
    FailedRun,
    Job,
    JobOutcome,
    JobSupervisor,
    SupervisorPolicy,
)
from .traces import TraceStore

__all__ = [
    "ALL_SCHEMES",
    "SENSITIVITY_WORKLOADS",
    "VARIANTS",
    "build_matrix",
    "RunOutcome",
    "RunReport",
    "SweepRunner",
    "SweepSummary",
    "run_spec",
    "stat_gauges",
    "JournalEntry",
    "SweepJournal",
    "FailedRun",
    "Job",
    "JobOutcome",
    "JobSupervisor",
    "SupervisorPolicy",
    "SPEC_VERSION",
    "ExperimentSpec",
    "canonical_json",
    "content_key",
    "ResultStore",
    "atomic_write_bytes",
    "atomic_write_json",
    "TraceStore",
]
