"""Compare benchmark results of two code versions measured on one host.

    python3 specbench/run.py --workload W --seed 7 --json-out base-1.json ...
    python3 specbench/compare.py --base base-*.json --new new-*.json

Each file is one ``run.py --json-out`` result.  All files must come from
the same workload, trace mode and host fingerprint (CPU count, Python,
numpy, platform); otherwise the comparison is refused with exit code 2,
because a ratio between numbers taken on different hosts measures the
hosts, not the code.  Interleave the two sides' runs (ABAB...) in one
session.  For each metric it prints each side's median, the ratio
new/base and, for end-to-end metrics, whether the change stays within the
bound BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def verdict(spec, base, new) -> str:
    if spec is None:
        return "" if base != new else "same"
    worse = new / base - 1 if spec["better"] == "lower" else 1 - new / base
    return "WORSE" if worse > spec["bound"] else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    keys = {(r["workload"], r["trace"], json.dumps(r["fingerprint"],
                                                   sort_keys=True))
            for r in base + new}
    if len(keys) != 1:
        print("compare: refusing to compute ratios across different "
              "workloads, trace modes or host fingerprints:", file=sys.stderr)
        for key in sorted(keys):
            print(f"  {key}", file=sys.stderr)
        return 2
    bounds = {}
    if BENCHMARK_JSON.is_file():
        bounds = {m["name"]: m
                  for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    print(f"{'metric':<32}{'base':>16}{'new':>16}{'new/base':>10}")
    for name, cell in base[0]["result"]["metrics"].items():
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in base)
        n = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in new)
        ratio = f"{n / b:.4f}" if b else "-"
        print(f"{name:<32}{b:>16.6g}{n:>16.6g}{ratio:>10}  "
              f"{cell['unit']:<10}{verdict(bounds.get(name), b, n)}")
    by_seed = {}
    for r in base + new:
        by_seed.setdefault((r["seed"], r["fault_seed"]), set()).add(
            r["record_digest"])
    moved = sorted(seed for seed, found in by_seed.items() if len(found) > 1)
    if moved:
        print(f"record digests DIFFER for (seed, fault seed) {moved}")
    else:
        print("record digests: identical per seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
