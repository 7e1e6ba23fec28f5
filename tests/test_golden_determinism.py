"""Golden-record determinism: the full figure-matrix output, pinned.

``tests/golden/core_records.json`` holds the complete
``SimulationResult.to_record()`` of each microbench case (a PIPM run, a
baseline CXL run, and a kernel-migration run) at tiny scale.  Two
distinct failure modes land here:

* a *model* change (including a latency-bug fix) moves the numbers —
  expected exactly once per intentional change, regenerate with
  ``python -m repro profile --scale tiny --write-golden
  tests/golden/core_records.json``;
* a *performance* change moves the numbers — never acceptable; the perf
  work in this repo is required to be output-neutral.

``tests/golden/fabric_records.json`` extends the pins past the flat,
fault-free cases: a 16-host two-tier rack, a single-switch rack under a
``switchdown`` window that opens and closes mid-run, and a flat run with
transfer errors plus a host crash and rejoin.  Each case pins the record
*and* the full ``StatRegistry`` snapshot, so link, switch-segment and
DRAM counters (queue ns included) are held byte-identical too.
Regenerate after an intentional model change with
``PYTHONPATH=src python tests/test_golden_determinism.py --write-fabric``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.config import FaultConfig, SystemConfig
from repro.sim.harness import run_experiment
from repro.sim.profile import PROFILE_CASES, compare_records, run_microbench
from repro.sim.results import SimulationResult
from repro.stats import StatRegistry
from repro.workloads.trace import WorkloadScale

GOLDEN = Path(__file__).parent / "golden" / "core_records.json"
FABRIC_GOLDEN = Path(__file__).parent / "golden" / "fabric_records.json"


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


def write_fabric_golden(path=FABRIC_GOLDEN):
    payload = {
        "comment": (
            "to_record() + StatRegistry.snapshot() per switched/faulted "
            "case at tiny scale; perf work must keep these byte-identical "
            "(regenerate: PYTHONPATH=src python "
            "tests/test_golden_determinism.py --write-fabric)"
        ),
        "scale": "tiny",
        "records": _fabric_records(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_records_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == "tiny"
    result = run_microbench(scale="tiny", cases=PROFILE_CASES)
    problems = compare_records(result.records(), golden["records"])
    assert problems == [], "\n".join(problems)


def test_lane_off_matches_golden_file():
    """The slow path alone (fast lane off) reproduces the same bytes."""
    golden = json.loads(GOLDEN.read_text())
    result = run_microbench(
        scale="tiny", cases=PROFILE_CASES, fast_lane=False
    )
    problems = compare_records(result.records(), golden["records"])
    assert problems == [], "\n".join(problems)


def test_golden_covers_pipm_and_kernel_migration():
    """The pinned matrix must exercise both mechanisms' hot paths."""
    schemes = {scheme for _, scheme in PROFILE_CASES}
    assert "pipm" in schemes
    assert "memtis" in schemes  # kernel page migration
    golden = json.loads(GOLDEN.read_text())
    assert set(golden["records"]) == {
        f"{w}/{s}" for w, s in PROFILE_CASES
    }


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-fabric"]:
        sys.exit("usage: test_golden_determinism.py --write-fabric")
    write_fabric_golden()
    print(f"wrote {FABRIC_GOLDEN}")
