"""PIPM: Partial and Incremental Page Migration for Multi-host CXL-DSM.

A from-scratch Python reproduction of the ASPLOS'26 paper: a multi-host
CXL disaggregated-shared-memory timing simulator, the PIPM coherence
protocol and remapping-table architecture, six baseline migration schemes,
thirteen workload trace generators, and harnesses regenerating every table
and figure of the paper's evaluation.

Quickstart::

    from repro import SystemConfig, compare_schemes, speedups_over_native

    results = compare_schemes("pr", schemes=["native", "pipm"])
    print(speedups_over_native(results))
"""

from .config import (
    CacheConfig,
    CoreConfig,
    CxlLinkConfig,
    DirectoryConfig,
    DramConfig,
    FaultConfig,
    KernelMigrationConfig,
    PipmConfig,
    SystemConfig,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    InvariantWatchdog,
    LinkTransferError,
)
from .sim import (
    MultiHostSystem,
    ServicePoint,
    SimulationEngine,
    SimulationResult,
    compare_schemes,
    run_experiment,
    simulate,
)
from .sim.harness import DEFAULT_SCHEMES, speedups_over_native
from .policies import SCHEME_CLASSES, make_scheme
from .workloads import WorkloadScale, WorkloadTrace, generate, workload_names
from .coherence import BaseCxlDsmModel, CheckResult, ModelChecker, PipmModel

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "CxlLinkConfig",
    "DirectoryConfig",
    "DramConfig",
    "FaultConfig",
    "FaultInjector",
    "FaultPlan",
    "InvariantWatchdog",
    "LinkTransferError",
    "KernelMigrationConfig",
    "PipmConfig",
    "SystemConfig",
    "MultiHostSystem",
    "ServicePoint",
    "SimulationEngine",
    "SimulationResult",
    "compare_schemes",
    "run_experiment",
    "simulate",
    "DEFAULT_SCHEMES",
    "speedups_over_native",
    "SCHEME_CLASSES",
    "make_scheme",
    "WorkloadScale",
    "WorkloadTrace",
    "generate",
    "workload_names",
    "BaseCxlDsmModel",
    "CheckResult",
    "ModelChecker",
    "PipmModel",
    "__version__",
]
