"""Core-speed microbench and cProfile harness (``python -m repro profile``).

The simulator's throughput ceiling is the pure-Python per-access hot path
(:meth:`SimulationEngine.run` -> :meth:`MultiHostSystem.access`), so this
module times exactly that: trace generation and system construction are
excluded, the engine run is the measured region.  The workloads are the
figure matrix's representative (workload, scheme) pairs — a PIPM run, a
baseline CXL run, and a kernel-migration run — generated at a fixed scale
from the usual seeded generators, so the measured work is byte-for-byte
identical between two invocations and between two commits.

Two artifacts hang off this:

* ``benchmarks/bench_core_speed.py`` persists the measured accesses/sec
  as ``benchmarks/results/BENCH_core.json`` — the bench trajectory.  The
  file keeps a ``baseline`` section (recorded once, pre-optimization)
  next to ``current``, so the speedup claim is always relative to a
  number that lives in the repository, not in someone's terminal
  scrollback.
* ``tests/golden/core_records.json`` pins every case's full
  ``SimulationResult.to_record()`` at tiny scale.  Perf work must leave
  those records byte-identical; ``--check-golden`` makes CI enforce it.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..policies import make_scheme
from ..workloads.registry import generate
from ..workloads.trace import WorkloadScale
from .engine import SimulationEngine
from .system import MultiHostSystem

#: Representative figure-matrix cases: one per mechanism on the hot path.
PROFILE_CASES: Tuple[Tuple[str, str], ...] = (
    ("pr", "pipm"),
    ("pr", "native"),
    ("ycsb", "memtis"),
)

_SCALES = {
    "tiny": WorkloadScale.tiny,
    "small": WorkloadScale.small,
    "default": WorkloadScale.default,
    "large": WorkloadScale.large,
}


def scale_by_name(name: str) -> WorkloadScale:
    if name not in _SCALES:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        )
    return _SCALES[name]()


@dataclass
class CaseResult:
    """One timed (workload, scheme) engine run."""

    workload: str
    scheme: str
    accesses: int
    wall_s: float
    record: Dict
    #: Accesses the hosts' fast lanes served (the rest took the slow path).
    lane_accesses: int

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.scheme}"

    @property
    def accesses_per_s(self) -> float:
        return self.accesses / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def lane_share(self) -> float:
        return self.lane_accesses / self.accesses if self.accesses else 0.0


@dataclass
class MicrobenchResult:
    scale: str
    num_hosts: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def total_accesses(self) -> int:
        return sum(case.accesses for case in self.cases)

    @property
    def total_wall_s(self) -> float:
        return sum(case.wall_s for case in self.cases)

    @property
    def aggregate_accesses_per_s(self) -> float:
        wall = self.total_wall_s
        return self.total_accesses / wall if wall > 0 else 0.0

    def summary(self) -> Dict:
        """The JSON shape BENCH_core.json stores (no wall-clock stamps)."""
        return {
            "scale": self.scale,
            "num_hosts": self.num_hosts,
            "aggregate_accesses_per_s": round(self.aggregate_accesses_per_s),
            "total_accesses": self.total_accesses,
            "total_wall_s": round(self.total_wall_s, 3),
            "cases": [
                {
                    "workload": case.workload,
                    "scheme": case.scheme,
                    "accesses": case.accesses,
                    "wall_s": round(case.wall_s, 3),
                    "accesses_per_s": round(case.accesses_per_s),
                }
                for case in self.cases
            ],
        }

    def records(self) -> Dict[str, Dict]:
        return {case.key: case.record for case in self.cases}


def run_case(
    workload: str,
    scheme: str,
    scale: WorkloadScale,
    config: Optional[SystemConfig] = None,
    repeats: int = 1,
    profiler: Optional[cProfile.Profile] = None,
    fast_lane: bool = True,
) -> CaseResult:
    """Time ``repeats`` fresh engine runs of one case; keep the fastest.

    The trace is generated once (outside the timed region) and replayed
    against a fresh system per repeat — the engine mutates cache/DRAM
    state, so re-running on a used system would measure different work.
    """
    if config is None:
        config = SystemConfig.scaled()
    trace = generate(
        workload,
        num_hosts=config.num_hosts,
        scale=scale,
        cores_per_host=config.cores_per_host,
    )
    accesses = sum(len(stream) for stream in trace.streams)
    footprint_pages = max(1, trace.footprint_bytes // 4096)
    best_wall = None
    record = None
    for _ in range(max(1, repeats)):
        system = MultiHostSystem(
            config,
            make_scheme(scheme),
            workload_mlp=trace.mlp,
            footprint_pages=footprint_pages,
        )
        engine = SimulationEngine(system, trace, fast_lane=fast_lane)
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        result = engine.run()
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        if best_wall is None or wall < best_wall:
            best_wall = wall
        if record is None:
            record = result.to_record()
    return CaseResult(
        workload=workload,
        scheme=scheme,
        accesses=accesses,
        wall_s=best_wall,
        record=record,
        lane_accesses=engine.lane_accesses,
    )


def run_microbench(
    scale: str = "small",
    cases: Sequence[Tuple[str, str]] = PROFILE_CASES,
    config: Optional[SystemConfig] = None,
    repeats: int = 1,
    profiler: Optional[cProfile.Profile] = None,
    fast_lane: bool = True,
) -> MicrobenchResult:
    if config is None:
        config = SystemConfig.scaled()
    scale_obj = scale_by_name(scale)
    out = MicrobenchResult(scale=scale, num_hosts=config.num_hosts)
    for workload, scheme in cases:
        out.cases.append(
            run_case(workload, scheme, scale_obj, config=config,
                     repeats=repeats, profiler=profiler,
                     fast_lane=fast_lane)
        )
    return out


# ----------------------------------------------------------------------
# Golden-record drift detection
# ----------------------------------------------------------------------
def compare_records(
    current: Dict[str, Dict], golden: Dict[str, Dict]
) -> List[str]:
    """Human-readable diffs between two ``records()`` maps (empty = clean).

    Comparison is on the canonical JSON text, so a drift anywhere in the
    record — a counter, a latency sum, a per-host dict — is caught even
    if float repr would round it away in casual printing.
    """
    problems: List[str] = []
    for key in sorted(golden):
        if key not in current:
            problems.append(f"{key}: missing from this run")
            continue
        want = json.dumps(golden[key], sort_keys=True)
        got = json.dumps(current[key], sort_keys=True)
        if want == got:
            continue
        detail = _first_divergence(golden[key], current[key])
        problems.append(f"{key}: record drifted ({detail})")
    for key in sorted(set(current) - set(golden)):
        problems.append(f"{key}: not pinned in the golden file")
    return problems


def _first_divergence(want: Dict, got: Dict) -> str:
    keys = sorted(set(want) | set(got))
    for key in keys:
        want_text = json.dumps(want.get(key), sort_keys=True)
        got_text = json.dumps(got.get(key), sort_keys=True)
        if want_text != got_text:
            if len(want_text) > 60:
                want_text = want_text[:57] + "..."
            if len(got_text) > 60:
                got_text = got_text[:57] + "..."
            return f"field {key!r}: golden={want_text} got={got_text}"
    return "structural difference"


def load_golden(path) -> Dict[str, Dict]:
    data = json.loads(Path(path).read_text())
    return data["records"]


def write_golden(path, result: MicrobenchResult) -> None:
    payload = {
        "comment": (
            "SimulationResult.to_record() per microbench case; perf work "
            "must keep these byte-identical (python -m repro profile "
            "--write-golden regenerates after an intentional model change)"
        ),
        "scale": result.scale,
        "records": result.records(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# cProfile reporting
# ----------------------------------------------------------------------
def profile_report(profiler: cProfile.Profile, top: int = 25) -> str:
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return buf.getvalue()
