#!/usr/bin/env python3
"""Graph analytics on multi-host CXL-DSM: all six GAPBS kernels.

The paper's intro motivates PIPM with graph workloads whose worker threads
traverse partition-local adjacency data (strong locality) while reading
vertex properties across partitions (fine-grained sharing).  This example
runs every GAPBS kernel under Native, a kernel tiering baseline (Memtis),
and PIPM, and prints the Fig. 10-style comparison for the graph suite.

Run:  python examples/graph_analytics.py [--scale tiny|small|default]
"""

import argparse

from repro import SystemConfig, WorkloadScale, compare_schemes
from repro.analysis.report import format_series, geomean

GAPBS = ["sssp", "bfs", "pr", "cc", "bc", "tc"]
SCHEMES = ["native", "memtis", "os-skew", "pipm"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "default"])
    args = parser.parse_args()
    scale = WorkloadScale.named(args.scale)
    config = SystemConfig.scaled()

    series = {}
    for kernel in GAPBS:
        results = compare_schemes(kernel, schemes=SCHEMES, config=config,
                                  scale=scale)
        native = results["native"]
        series[kernel] = {
            name: result.speedup_over(native)
            for name, result in results.items()
            if name != "native"
        }
        print(f"{kernel}: " + "  ".join(
            f"{k}={v:.2f}x" for k, v in series[kernel].items()
        ))

    print()
    print(format_series("GAPBS speedup over Native CXL-DSM", series,
                        mean_row="geomean"))
    pipm_mean = geomean(v["pipm"] for v in series.values())
    print(f"\nPIPM geomean speedup across the graph suite: {pipm_mean:.2f}x")


if __name__ == "__main__":
    main()
