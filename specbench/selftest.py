"""Self-tests of the benchmark itself.

    python3 specbench/selftest.py [--seed N]

Checks, exiting 1 on the first failed group:

* the module-to-layer map: every pattern names an existing module, and a
  module the map does not cover fails loudly;
* per workload, two traced runs of the same spec: every module the phases
  touch maps to exactly one layer, the record digests agree, the records
  pass the conservation checks, and every ``<layer>.calls_per_access`` is
  identical between the runs;
* the layer profile matches each workload's stated role: ``pipm`` is idle
  on kernel-ycsb-4h and rack-pr-16h, ``faults`` is idle everywhere but
  faults-ycsb-4h, ``fabric`` has its largest self share on rack-pr-16h;
* BENCHMARK.json lists exactly the metrics ``run.py`` prints, with the
  units it prints.

Run it on the default seed and on a held-out one (``--seed 1234``).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from pathlib import Path

import layers
import run

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Failed(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def check_layer_map(harness) -> None:
    modules = sorted(
        path.relative_to(harness.REPRO_DIR).as_posix()
        for path in harness.REPRO_DIR.rglob("*.py")
    )
    for layer, patterns in layers.LAYER_MODULES:
        for pattern in patterns:
            expect(
                any(fnmatch.fnmatchcase(m, pattern) for m in modules),
                f"layer {layer}: pattern {pattern!r} matches no module",
            )
    folder = harness.default_folder()
    unmapped = str(harness.REPRO_DIR / "sim" / "telemetry.py")
    try:
        folder.layer_of(unmapped, "record")
    except layers.UnmappedModule:
        pass
    else:
        raise Failed("an unmapped src/repro module did not fail loudly")
    expect(folder.layer_of("~", "<built-in method builtins.len>")
           == "builtins", "C functions must fold into builtins")


def profile_workload(harness, name: str, seed: int):
    """Two traced runs of one spec; returns its per-layer metrics.

    Folding the profiles raises :class:`layers.UnmappedModule` for any
    touched src/repro module outside the map.
    """
    args = argparse.Namespace(seed=seed, fault_seed=seed, seconds=0.0)
    workload = harness.WORKLOADS[name]
    _, problems, metrics, _ = run.per_layer(
        harness, workload, args, min_traced=2
    )
    expect(not problems, f"{name}: {problems}")
    return metrics


def check_roles(profiles) -> None:
    def calls(workload, layer):
        return profiles[workload][f"{layer}.calls_per_access"]

    for workload in ("kernel-ycsb-4h", "rack-pr-16h"):
        expect(calls(workload, "pipm") == 0,
               f"{workload}: the pipm layer should be idle")
    for workload in profiles:
        faulted = workload == "faults-ycsb-4h"
        expect((calls(workload, "faults") > 0) == faulted,
               f"{workload}: faults layer "
               f"{'idle' if faulted else 'active'}, expected the opposite")
    shares = {w: p["fabric.self_share"] for w, p in profiles.items()}
    expect(max(shares, key=shares.get) == "rack-pr-16h",
           f"fabric self share is largest off rack-pr-16h: {shares}")


def check_benchmark_json(harness, e2e_metrics, layer_metrics) -> None:
    spec = json.loads(BENCHMARK_JSON.read_text())
    expect(sorted(w["name"] for w in spec["workloads"])
           == sorted(harness.WORKLOADS),
           "BENCHMARK.json workloads differ from harness.WORKLOADS")
    for section, printed in (("end_to_end", e2e_metrics),
                             ("per_layer", layer_metrics)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        expect(sorted(listed) == sorted(printed),
               f"BENCHMARK.json {section} names differ from run.py's: "
               f"{sorted(set(listed) ^ set(printed))}")
        for name, unit in listed.items():
            expect(unit == run.unit_of(name),
                   f"{name}: BENCHMARK.json unit {unit!r}, "
                   f"run.py prints {run.unit_of(name)!r}")


def print_profile_table(profiles) -> None:
    names = list(profiles)
    print(f"{'layer':<10}" + "".join(f"{n:>24}" for n in names))
    for layer in layers.LAYERS:
        cells = "".join(
            f"{profiles[n][layer + '.calls_per_access']:>12.3f}"
            f"{profiles[n][layer + '.self_share']:>12.1%}"
            for n in names
        )
        print(f"{layer:<10}{cells}")
    print("(per workload: calls per access, share of run-phase self time)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specbench self-tests")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not (run.SRC / "repro" / "__init__.py").is_file():
        print(f"selftest: no simulator source at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import harness  # needs the checkout's src on sys.path

    names = list(harness.WORKLOADS)
    try:
        check_layer_map(harness)
        print("ok  layer map: patterns live, unmapped modules fail loudly")
        profiles = {}
        for name in names:
            profiles[name] = profile_workload(harness, name, args.seed)
            print(f"ok  {name}: modules mapped, digests and call counts "
                  f"identical over two traced runs (seed {args.seed})")
        check_roles(profiles)
        print("ok  layer roles: pipm, faults and fabric where expected")
        e2e_args = argparse.Namespace(seed=args.seed, fault_seed=args.seed,
                                      seconds=0.0)
        _, problems, e2e, _ = run.end_to_end(
            harness, harness.WORKLOADS[names[0]], e2e_args
        )
        expect(not problems, f"{names[0]} end to end: {problems}")
        check_benchmark_json(harness, e2e, profiles[names[0]])
        print("ok  BENCHMARK.json matches the printed metrics and units")
    except (Failed, layers.UnmappedModule) as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print_profile_table(profiles)
    return 0


if __name__ == "__main__":
    sys.exit(main())
