"""Golden determinism: the simulator's inputs and output, pinned.

This module owns the three pin files and their writer.  Two distinct
failure modes land here:

* a *model* change (including a latency-bug fix) moves the numbers —
  expected exactly once per intentional change; regenerate the files in
  the same commit with
  ``PYTHONPATH=src python tests/test_golden_determinism.py --write``;
* a *performance* change moves the numbers — never acceptable; the perf
  work in this repo is required to be output-neutral.

``tests/golden/core_records.json`` holds the complete
``SimulationResult.to_record()`` of the four :data:`CORE_CASES` (a PIPM
run, a baseline CXL run, a kernel-migration run, and a run that demotes
pages) on the default 4-host flat system at tiny scale.

``tests/golden/fabric_records.json`` extends the pins past the flat,
fault-free cases: a 16-host two-tier rack, a single-switch rack under a
``switchdown`` window that opens and closes mid-run, and a flat run with
transfer errors plus a host crash and rejoin.  Each case pins the record
*and* the full ``StatRegistry`` snapshot, so link, switch-segment and
DRAM counters (queue ns included) are held byte-identical too.

Every record pin is checked with the engine's fast lane on and with it
off.

``tests/golden/trace_digests.json`` pins the inputs: the SHA-256 of every
host stream of each registered workload, of ``synthetic_trace`` with the
default :class:`SyntheticSpec` and of ``partitioned_split_trace``, all at
tiny scale.  A generator that draws from an unseeded or global RNG, or
from the clock, changes its digests from one process to the next, so the
determinism contract the result cache relies on fails here.
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.config import FaultConfig, SystemConfig
from repro.sim.harness import run_experiment
from repro.sim.results import SimulationResult
from repro.stats import StatRegistry
from repro.workloads import (
    SyntheticSpec,
    generate,
    partitioned_split_trace,
    synthetic_trace,
    workload_names,
)
from repro.workloads.trace import WorkloadScale, WorkloadTrace

GOLDEN = Path(__file__).parent / "golden" / "core_records.json"
FABRIC_GOLDEN = Path(__file__).parent / "golden" / "fabric_records.json"
TRACE_GOLDEN = Path(__file__).parent / "golden" / "trace_digests.json"

#: One (workload, scheme) per mechanism on the hot path: PIPM, the
#: baseline CXL-DSM, kernel page migration, and a scheme that demotes
#: pages back to CXL memory.
CORE_CASES = (
    ("pr", "pipm"),
    ("pr", "native"),
    ("ycsb", "memtis"),
    ("ycsb", "os-skew"),
)


def _core_records(fast_lane=True):
    return {
        f"{workload}/{scheme}": run_experiment(
            workload, scheme, SystemConfig.scaled(),
            scale=WorkloadScale.tiny(), fast_lane=fast_lane,
        ).to_record()
        for workload, scheme in CORE_CASES
    }


def _fabric_cases():
    """``{key: (workload, scheme, config)}`` for the fabric/fault pins."""
    return {
        "two-tier-16h/pr/native": (
            "pr", "native",
            SystemConfig.rack(16, "two-tier:hosts-per-leaf=4"),
        ),
        # The tiny pr run lasts ~175 us at 8 hosts; the window sits inside.
        "single-switch-8h-switchdown/pr/pipm": (
            "pr", "pipm",
            SystemConfig.rack(8, "single-switch").replace(
                faults=FaultConfig.parse(
                    "switchdown:switch-down-start-ns=40000,"
                    "switch-down-end-ns=100000"
                )
            ),
        ),
        # The preset's crash epochs (200/600 us) lie past the end of a
        # tiny run; pull them in so recovery and rejoin both happen.
        "flat-4h-hostdown-rejoin/ycsb/pipm": (
            "ycsb", "pipm",
            SystemConfig.scaled(num_hosts=4).replace(
                faults=FaultConfig.parse(
                    "hostdown-rejoin:transfer-error-rate=0.001,"
                    "crash-at-ns=60000,crash-rejoin-ns=110000"
                )
            ),
        ),
    }


def _run_fabric_case(workload, scheme, config, fast_lane=True):
    registry = StatRegistry()
    result = run_experiment(
        workload, scheme, config, scale=WorkloadScale.tiny(),
        fast_lane=fast_lane, stats=registry,
    )
    return {"record": result.to_record(), "stats": registry.snapshot()}


def _fabric_records(fast_lane=True):
    return {
        key: _run_fabric_case(workload, scheme, config, fast_lane)
        for key, (workload, scheme, config) in _fabric_cases().items()
    }


#: Every trace generator, by the name its digests are pinned under.
TRACE_SOURCES: Dict[str, Callable[[], WorkloadTrace]] = {
    **{
        name: partial(generate, name, scale=WorkloadScale.tiny())
        for name in workload_names()
    },
    "synthetic": partial(
        synthetic_trace, SyntheticSpec(), scale=WorkloadScale.tiny()
    ),
    "split-pages": partial(partitioned_split_trace, scale=WorkloadScale.tiny()),
}


def _stream_digests(trace: WorkloadTrace) -> List[str]:
    return [
        hashlib.sha256(np.ascontiguousarray(stream, dtype="<i8")).hexdigest()
        for stream in trace.streams
    ]


def compare_records(
    current: Dict[str, Dict], golden: Dict[str, Dict]
) -> List[str]:
    """Human-readable diffs between two record maps (empty = clean).

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
    for key in sorted(set(want) | set(got)):
        want_text = json.dumps(want.get(key), sort_keys=True)
        got_text = json.dumps(got.get(key), sort_keys=True)
        if want_text != got_text:
            if len(want_text) > 60:
                want_text = want_text[:57] + "..."
            if len(got_text) > 60:
                got_text = got_text[:57] + "..."
            return f"field {key!r}: golden={want_text} got={got_text}"
    return "structural difference"


def write_goldens():
    """Rewrite every pin file from this tree's runs and generators."""
    regenerate = (
        "regenerate: PYTHONPATH=src python "
        "tests/test_golden_determinism.py --write"
    )
    for path, what, records in (
        (GOLDEN, "SimulationResult.to_record() per core case",
         _core_records()),
        (FABRIC_GOLDEN,
         "to_record() + StatRegistry.snapshot() per switched/faulted case",
         _fabric_records()),
    ):
        payload = {
            "comment": (
                f"{what} at tiny scale; perf work must keep these "
                f"byte-identical ({regenerate})"
            ),
            "scale": "tiny",
            "records": records,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    payload = {
        "comment": (
            f"SHA-256 of each host stream ((n, 4) little-endian int64) "
            f"per trace generator at tiny scale ({regenerate})"
        ),
        "scale": "tiny",
        "digests": {
            name: _stream_digests(source())
            for name, source in TRACE_SOURCES.items()
        },
    }
    TRACE_GOLDEN.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_records_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == "tiny"
    problems = compare_records(_core_records(), golden["records"])
    assert problems == [], "\n".join(problems)


def test_lane_off_matches_golden_file():
    """The slow path alone (fast lane off) reproduces the same bytes."""
    golden = json.loads(GOLDEN.read_text())
    problems = compare_records(
        _core_records(fast_lane=False), golden["records"]
    )
    assert problems == [], "\n".join(problems)


def test_golden_covers_pipm_and_kernel_migration():
    """The pinned matrix must exercise both mechanisms' hot paths."""
    schemes = {scheme for _, scheme in CORE_CASES}
    assert "pipm" in schemes
    assert "memtis" in schemes  # kernel page migration
    golden = json.loads(GOLDEN.read_text())
    assert set(golden["records"]) == {
        f"{w}/{s}" for w, s in CORE_CASES
    }
    # A demotion's page transfer (the device-bound link direction) is
    # pinned only if some case demotes.
    assert golden["records"]["ycsb/os-skew"]["demotions"] > 0


def test_golden_records_round_trip():
    """Every pinned record must still load through from_record."""
    golden = json.loads(GOLDEN.read_text())
    for key, record in golden["records"].items():
        result = SimulationResult.from_record(record)
        assert result.to_record() == record, key


@pytest.mark.parametrize("fast_lane", [False, True],
                         ids=["loop", "fast-lane"])
def test_fabric_records_match_golden_file(fast_lane):
    """Switched and faulted runs: records and every registry counter."""
    golden = json.loads(FABRIC_GOLDEN.read_text())
    assert golden["scale"] == "tiny"
    problems = compare_records(_fabric_records(fast_lane), golden["records"])
    assert problems == [], "\n".join(problems)


def test_fabric_golden_exercises_fabric_and_faults():
    """The pins must actually cover segments, a switchdown and a crash."""
    golden = json.loads(FABRIC_GOLDEN.read_text())["records"]
    rack = golden["two-tier-16h/pr/native"]["stats"]
    assert rack["spine.queue_ns"] > 0 and rack["leaf3.messages"] > 0
    down = golden["single-switch-8h-switchdown/pr/pipm"]["stats"]
    assert down["switch0.queue_ns"] > 0
    faulted = golden["flat-4h-hostdown-rejoin/ycsb/pipm"]["record"]["stats"]
    assert faulted["fault_host_crashes"] == 1.0
    assert faulted["fault_host_rejoins"] == 1.0
    assert faulted["fault_link_retries"] > 0


@pytest.mark.parametrize("name", sorted(TRACE_SOURCES))
def test_trace_digests_match_golden_file(name):
    """Each generator's streams are a pure function of name and scale."""
    golden = json.loads(TRACE_GOLDEN.read_text())
    assert golden["scale"] == "tiny"
    assert name in golden["digests"], f"{name}: not pinned in the golden file"
    assert _stream_digests(TRACE_SOURCES[name]()) == golden["digests"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_determinism.py --write")
    write_goldens()
    print(f"wrote {GOLDEN}, {FABRIC_GOLDEN} and {TRACE_GOLDEN}")
