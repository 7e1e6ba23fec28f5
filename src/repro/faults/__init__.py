"""Fault injection and resilience: deterministic link/host/memory faults.

The subsystem has three layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seed-derived, concrete
  fault events against simulated time;
* :mod:`repro.faults.injector` — :class:`FaultInjector`: the runtime hooks
  links and the system model consult, plus :class:`FaultCounters`;
* :mod:`repro.faults.watchdog` — :class:`InvariantWatchdog`: online audits
  of remap-table / directory / frame consistency.

Configuration rides on :class:`repro.config.FaultConfig` (the ``faults``
field of :class:`repro.config.SystemConfig`); ``FaultConfig.parse`` turns
CLI specs like ``degraded:seed=3`` into configs.
"""

from ..mem.cxl_link import LinkTransferError
from .injector import (
    FaultCounters,
    FaultInjector,
    LinkFaultModel,
)
from .plan import (
    FaultPlan,
    HostCrashEvent,
    HostStallWindow,
    LinkDegradeWindow,
    PoisonEvent,
)
from .watchdog import InvariantWatchdog, WatchdogError

__all__ = [
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "HostCrashEvent",
    "HostStallWindow",
    "InvariantWatchdog",
    "LinkDegradeWindow",
    "LinkFaultModel",
    "LinkTransferError",
    "PoisonEvent",
    "WatchdogError",
]
