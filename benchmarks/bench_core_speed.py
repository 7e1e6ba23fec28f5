"""Core speed: accesses/sec of the per-access hot path (bench trajectory).

Unlike the figure benches this one measures the *simulator*, not the
simulated system: it times ``SimulationEngine.run`` over the profile
microbench cases and persists the result as
``benchmarks/results/BENCH_core.json``.  The file carries:

* ``baseline`` — recorded once per optimization campaign (pre-work) with
  ``--set-baseline``.  It comes from another session, so no ratio
  against it is written: machine speed drifts between sessions.
* ``current`` — refreshed by any later run at the same scale, timed with
  the engine's defaults (fast lane on), which is what users run.
* ``lanes`` — one summary with the fast lane on and one with it off,
  timed in the same invocation, plus their ``fast_lane_speedup`` ratio.
  Each case alternates lane on and lane off run by run and keeps the
  fastest of ``--repeats`` runs per side, so a drift in machine speed
  hits both sides alike.
* ``host`` — what the numbers depend on besides the code (CPU count,
  Python and numpy versions).

Run as a script (the committed artifact is updated this way)::

    PYTHONPATH=src python benchmarks/bench_core_speed.py [--set-baseline]

or via pytest (plumbing smoke only; never touches the committed file)::

    REPRO_BENCH_SCALE=tiny python -m pytest -x -q benchmarks/bench_core_speed.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(_REPO / "src"))

from repro.config import SystemConfig  # noqa: E402
from repro.sim.profile import (  # noqa: E402
    PROFILE_CASES,
    MicrobenchResult,
    run_case,
    scale_by_name,
)

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_core.json"


def host_fingerprint() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench_core(scale: str, repeats: int, out: Path,
               set_baseline: bool = False) -> dict:
    """Run the microbench with the fast lane on and off and fold the
    result into ``out``; only the ``baseline`` section survives from an
    existing file."""
    config = SystemConfig.scaled()
    scale_obj = scale_by_name(scale)
    sides = (("on", True), ("off", False))
    results = {
        label: MicrobenchResult(scale=scale, num_hosts=config.num_hosts)
        for label, _ in sides
    }
    for workload, scheme in PROFILE_CASES:
        best = {}
        for _ in range(max(1, repeats)):
            for label, fast_lane in sides:
                case = run_case(workload, scheme, scale_obj, config=config,
                                fast_lane=fast_lane)
                if label not in best or case.wall_s < best[label].wall_s:
                    best[label] = case
        for label, _ in sides:
            results[label].cases.append(best[label])
    lanes = {label: result.summary() for label, result in results.items()}
    summary = lanes["on"]
    payload = {"bench": "core_speed"}
    if out.exists() and not set_baseline:
        baseline = json.loads(out.read_text()).get("baseline")
        if baseline is not None:
            payload["baseline"] = baseline
    payload.setdefault("baseline", summary)
    payload["current"] = summary
    payload["lanes"] = lanes
    payload["fast_lane_speedup"] = round(
        lanes["on"]["aggregate_accesses_per_s"]
        / lanes["off"]["aggregate_accesses_per_s"],
        2,
    )
    payload["host"] = host_fingerprint()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        choices=("tiny", "small", "default", "large"),
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per case and lane setting; the fastest is kept",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--set-baseline", action="store_true",
        help="record this run as the baseline section (pre-optimization)",
    )
    args = parser.parse_args(argv)
    payload = bench_core(args.scale, args.repeats, args.out,
                         set_baseline=args.set_baseline)
    current = payload["current"]
    print(f"core speed [{current['scale']}]: "
          f"{current['aggregate_accesses_per_s']:,} acc/s aggregate "
          f"over {current['total_accesses']:,} accesses")
    for case in current["cases"]:
        print(f"  {case['workload']}/{case['scheme']:<10} "
              f"{case['accesses_per_s']:>12,} acc/s")
    for label, summary in payload["lanes"].items():
        print(f"  [fast lane {label:<3}] "
              f"{summary['aggregate_accesses_per_s']:>12,} acc/s aggregate")
    print(f"  fast lane on vs. off: {payload['fast_lane_speedup']}x")
    print(f"[saved to {args.out}]")
    return 0


def test_core_speed(tmp_path):
    """Plumbing smoke: tiny run into a scratch file, sane JSON out."""
    out = tmp_path / "BENCH_core.json"
    payload = bench_core("tiny", 1, out)
    assert out.exists()
    assert payload["baseline"] == payload["current"] == payload["lanes"]["on"]
    assert "speedup_vs_baseline" not in payload
    assert set(payload["lanes"]) == {"on", "off"}
    assert payload["fast_lane_speedup"] > 0
    for summary in payload["lanes"].values():
        assert summary["aggregate_accesses_per_s"] > 0
    assert payload["host"]["cpus"] == os.cpu_count()


if __name__ == "__main__":
    sys.exit(main())
