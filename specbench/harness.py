"""One full simulator spec, timed by phase, with its output checks.

A spec is what ``repro run`` executes for one (workload, scheme, config):
generate the trace, build the system, build the engine (bake +
``validate``), run it, and serialise the result record.  Only public entry
points are called, every argument left at its default, so the benchmark
keeps timing what users run whatever backend the engine picks.

Requires the checkout's ``src`` on ``sys.path`` (see ``run.py``).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy

from repro import units
from repro.config import FaultConfig, SystemConfig
from repro.policies import make_scheme
from repro.sim.engine import SimulationEngine
from repro.sim.results import ServicePoint
from repro.sim.system import MultiHostSystem
from repro.stats import StatRegistry
from repro.workloads.registry import generate
from repro.workloads.trace import WorkloadScale

from layers import LAYERS, LayerFolder
from reference import PaceSampler

PHASES = ("generate", "build", "bake", "run", "collect")
SETUP_PHASES = ("generate", "build", "bake")

BENCH_DIR = Path(__file__).resolve().parent
REPRO_DIR = BENCH_DIR.parent / "src" / "repro"
FOOTPRINT_BYTES = 2 * units.MB


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config plus a (workload, scheme) pair."""

    name: str
    why: str
    workload: str
    scheme: str
    hosts: int
    accesses_per_host: int
    #: ``None`` = ``SystemConfig.scaled()`` (flat); else a fabric spec.
    topology: Optional[str] = None
    #: Fault-plan spec without its seed; the benchmark appends ``seed=``.
    faults: Optional[str] = None

    def config(self, fault_seed: int) -> SystemConfig:
        if self.topology is None:
            config = SystemConfig.scaled(num_hosts=self.hosts)
        else:
            config = SystemConfig.rack(self.hosts, self.topology)
        if self.faults is not None:
            plan = FaultConfig.parse(f"{self.faults},seed={fault_seed}")
            config = config.replace(faults=plan)
        return config

    def scale(self, seed: int) -> WorkloadScale:
        return WorkloadScale(
            accesses_per_host=self.accesses_per_host,
            footprint_bytes=FOOTPRINT_BYTES,
            seed=seed,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pipm-pr-4h",
            "PIPM-bound: promotions, incremental migrations and remap "
            "caches dominate; where a pipm/remap/directory change shows",
            "pr", "pipm", hosts=4, accesses_per_host=12_500,
        ),
        Workload(
            "kernel-ycsb-4h",
            "kernel migration with interval ticks and S->M upgrades, many "
            "L1 hits; loop overhead heavy, pipm idle",
            "ycsb", "memtis", hosts=4, accesses_per_host=25_000,
        ),
        Workload(
            "rack-pr-16h",
            "16 hosts on a two-tier switched fabric: every miss crosses "
            "shared segments, heavy back-invalidation, fast lane off",
            "pr", "native", hosts=16, accesses_per_host=5_000,
            topology="two-tier:hosts-per-leaf=4",
        ),
        Workload(
            "faults-ycsb-4h",
            "fault plan on every link transfer plus a host crash, recovery "
            "and rejoin; write-heavy PIPM, fast lane off",
            "ycsb", "pipm", hosts=4, accesses_per_host=25_000,
            faults=(
                "hostdown-rejoin:transfer-error-rate=0.001,"
                "watchdog-period-ns=200000"
            ),
        ),
    )
}


@dataclass
class SpecRun:
    """The outcome of one spec: phase times, record and registry."""

    seconds: Dict[str, float]
    trace_accesses: int
    record: Dict
    registry: Dict[str, float]
    profiles: Optional[Dict[str, cProfile.Profile]] = None

    @property
    def accesses(self) -> int:
        return self.record["accesses"]

    @property
    def spec_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def setup_s(self) -> float:
        return sum(self.seconds[phase] for phase in SETUP_PHASES)

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.seconds["run"]

    @property
    def digest(self) -> str:
        return record_digest(self.record)


class _PhaseClock:
    """Times each phase call; profiles it too when given profilers.

    A phase's time is its wall time less the time a pace sampler's slices
    took during it.
    """

    def __init__(self, profiles: Optional[Dict[str, cProfile.Profile]],
                 sampler: Optional[PaceSampler]):
        self.seconds: Dict[str, float] = {}
        self._profiles = profiles
        self._sampler = sampler

    def _spent(self) -> float:
        return self._sampler.spent if self._sampler is not None else 0.0

    def call(self, phase, fn, *args, **kwargs):
        profile = self._profiles[phase] if self._profiles else None
        spent = self._spent()
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        out = fn(*args, **kwargs)
        if profile is not None:
            profile.disable()
        self.seconds[phase] = (
            time.perf_counter() - start - (self._spent() - spent)
        )
        return out


def _build_system(config, scheme, trace, stats):
    return MultiHostSystem(
        config,
        make_scheme(scheme),
        workload_mlp=trace.mlp,
        footprint_pages=max(1, trace.footprint_bytes // 4096),
        stats=stats,
    )


def run_spec(
    workload: Workload,
    seed: int,
    fault_seed: int,
    traced: bool = False,
    sampler: Optional[PaceSampler] = None,
) -> SpecRun:
    """Run one full spec; with ``traced``, under one profiler per phase.

    With an active ``sampler``, the time its slices take is left out of
    the phase times.
    """
    profiles = (
        {phase: cProfile.Profile() for phase in PHASES} if traced else None
    )
    config = workload.config(fault_seed)
    stats = StatRegistry()
    clock = _PhaseClock(profiles, sampler)
    gc.collect()
    trace = clock.call(
        "generate", generate, workload.workload,
        num_hosts=config.num_hosts,
        scale=workload.scale(seed),
        cores_per_host=config.cores_per_host,
    )
    system = clock.call(
        "build", _build_system, config, workload.scheme, trace, stats
    )
    engine = clock.call("bake", SimulationEngine, system, trace)
    result = clock.call("run", engine.run)
    record = clock.call("collect", result.to_record)
    return SpecRun(
        seconds=clock.seconds,
        trace_accesses=trace.total_accesses,
        record=record,
        registry=stats.snapshot(),
        profiles=profiles,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def record_digest(record: Dict) -> str:
    """SHA-256 of the canonical JSON text of a ``to_record()`` dict."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def conservation_problems(run: SpecRun) -> List[str]:
    """Accounting identities every record must satisfy (empty = clean)."""
    record = run.record
    problems = []
    served = sum(record["service_counts"].values())
    if served != record["accesses"]:
        problems.append(
            f"service counts sum to {served}, accesses {record['accesses']}"
        )
    if record["exec_time_ns"] != max(record["host_time_ns"]):
        problems.append("exec_time_ns is not the max of host_time_ns")
    dropped = record["stats"].get("fault_crash_dropped_accesses", 0)
    if record["accesses"] != run.trace_accesses - dropped:
        problems.append(
            f"{record['accesses']} accesses retired from a "
            f"{run.trace_accesses}-access trace with {dropped:g} dropped"
        )
    violations = sorted(k for k in record["stats"] if k.startswith("watchdog_"))
    if violations:
        problems.append(f"watchdog reported {', '.join(violations)}")
    return problems


# ----------------------------------------------------------------------
# Simulated identity counters
# ----------------------------------------------------------------------
_SERVICE_NAMES = {
    ServicePoint.L1: "l1",
    ServicePoint.LLC: "llc",
    ServicePoint.LOCAL_MEM: "local",
    ServicePoint.PIPM_LOCAL: "pipm_local",
    ServicePoint.CXL_MEM: "cxl",
    ServicePoint.CXL_FWD: "cxl_fwd",
    ServicePoint.INTER_HOST: "inter_host",
}
_LINK = re.compile(r"link\d+\.(messages|bytes|queue_ns|retries)$")
_FABRIC = re.compile(r"(switch0|leaf\d+|spine)\.(messages|queue_ns)$")
_CXL_DRAM = re.compile(r"cxl_mem\.ch\d+\.(row_hits|row_misses|queue_ns)$")
_LOCAL_DRAM = re.compile(r"host\d+\.local_mem\.ch\d+\.accesses$")


def _sum_matching(registry: Dict[str, float], pattern, group: int) -> Dict:
    sums: Dict[str, float] = {}
    for key, value in registry.items():
        match = pattern.match(key)
        if match:
            name = match.group(group)
            sums[name] = sums.get(name, 0) + value
    return sums


def identity_counters(run: SpecRun) -> Dict[str, float]:
    """Simulated outputs a speed-only change must leave bit-identical."""
    record, registry = run.record, run.registry
    stats = record["stats"]
    out: Dict[str, float] = {"sim.exec_ns": record["exec_time_ns"]}
    for point, name in _SERVICE_NAMES.items():
        count = record["service_counts"].get(str(int(point)), 0)
        out[f"svc.{name}_frac"] = count / record["accesses"]
    out["directory.back_invalidations"] = stats.get("back_invalidations", 0)
    for name in ("promotions", "incremental_migrations", "migrate_backs",
                 "revocations"):
        out[f"pipm.{name}"] = stats.get(f"pipm_{name}", 0)
    out["policies.migrations"] = record["migrations"]
    out["policies.mgmt_ns"] = record["mgmt_ns"]
    links = _sum_matching(registry, _LINK, 1)
    for name in ("messages", "bytes", "queue_ns", "retries"):
        out[f"link.{name}"] = links.get(name, 0)
    fabric = _sum_matching(registry, _FABRIC, 2)
    for name in ("messages", "queue_ns"):
        out[f"fabric.{name}"] = fabric.get(name, 0)
    dram = _sum_matching(registry, _CXL_DRAM, 1)
    rows = dram.get("row_hits", 0) + dram.get("row_misses", 0)
    out["dram.cxl_row_hit_rate"] = dram.get("row_hits", 0) / rows if rows else 0
    out["dram.cxl_queue_ns"] = dram.get("queue_ns", 0)
    out["dram.local_accesses"] = sum(
        value for key, value in registry.items() if _LOCAL_DRAM.match(key)
    )
    out["faults.injected_errors"] = stats.get("fault_injected_errors", 0)
    out["faults.crash_recovery_ns"] = stats.get("fault_crash_recovery_ns", 0)
    # The first 48 bits of the record digest, exact as a JSON number.
    out["record.digest48"] = int(record_digest(record)[:12], 16)
    return out


# ----------------------------------------------------------------------
# Traced pass: fold each phase's profile into layers
# ----------------------------------------------------------------------
def layer_profile(run: SpecRun, folder: LayerFolder) -> Dict[str, float]:
    """Per-layer calls per access (whole spec) and run-phase self share."""
    calls = {layer: 0 for layer in LAYERS}
    run_self = {}
    for phase, profile in run.profiles.items():
        totals = folder.fold(pstats.Stats(profile).stats)
        for layer, total in totals.items():
            calls[layer] += total.calls
        if phase == "run":
            run_self = {layer: t.self_s for layer, t in totals.items()}
    run_total = sum(run_self.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_access"] = calls[layer] / run.accesses
        out[f"{layer}.self_share"] = run_self[layer] / run_total
    return out


def default_folder() -> LayerFolder:
    return LayerFolder(str(REPRO_DIR), str(BENCH_DIR))


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    """What a host-time number depends on besides the code under test."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
