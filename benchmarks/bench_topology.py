"""Fabric-topology evaluation: the scheme matrix across switched racks.

Re-runs the PIPM-vs-Native-vs-Memtis comparison under the three fabric
presets (``flat``, ``single-switch``, ``two-tier``) at rack scale
(4/8/16/32 hosts).  The flat fabric is the paper's baseline model — each
host owns a private link to the memory node — while the switched presets
route every access through shared switch ports and leaf uplinks that
contend *across* hosts, so the fabric itself becomes a scaling
bottleneck the schemes must amortize.

Checks the topology layer's core guarantees:

* a switched path is never free: for every (workload, scheme, hosts)
  cell, single-switch and two-tier runs cost strictly more time than
  flat (extra hop latency plus shared-segment queueing);
* on the graph workload (``pr``), switching never erodes PIPM's
  advantage: migrating hot pages to local DRAM removes traffic from the
  contended shared segments, so PIPM's speedup over Native on every
  switched preset is at least its flat-fabric speedup at the same host
  count, and PIPM keeps beating Native outright on every fabric up to
  16 hosts;
* on ``ycsb``, PIPM sits within 4% of Native on every fabric, and its
  speedup on a switched preset stays within 5% of its flat-fabric
  speedup — switching can cost it a little (0.970x single-switch
  against 0.975x flat at 16 hosts).

Besides the text table, persists
``benchmarks/results/BENCH_topology.json`` with per-cell execution
times, slowdown-vs-flat, and speedup-over-native so fabric sensitivity
can be charted per scheme.
"""

import dataclasses
import json

from common import RESULTS_DIR, bench_scale_name, run_cached, write_output
from repro import SystemConfig
from repro.analysis.report import format_table
from repro.config import FabricConfig

TOPOLOGIES = ["flat", "single-switch", "two-tier"]
HOSTS = [4, 8, 16, 32]
SCHEMES = ["native", "memtis", "pipm"]
WORKLOADS = ["pr", "ycsb"]

JSON_OUT = RESULTS_DIR / "BENCH_topology.json"


def _config(topology, hosts):
    return dataclasses.replace(
        SystemConfig.scaled(num_hosts=hosts),
        fabric=FabricConfig.parse(topology),
    )


def _sweep():
    rows = []
    metrics = []
    ordering_checks = []
    for workload in WORKLOADS:
        for hosts in HOSTS:
            # results[topology][scheme]
            results = {}
            for topology in TOPOLOGIES:
                config = _config(topology, hosts)
                results[topology] = {
                    scheme: run_cached(
                        workload, scheme, config, tag=f"topo-{topology}",
                    )
                    for scheme in SCHEMES
                }
            for topology in TOPOLOGIES:
                native = results[topology]["native"]
                for scheme in SCHEMES:
                    result = results[topology][scheme]
                    flat = results["flat"][scheme]
                    slowdown = result.exec_time_ns / flat.exec_time_ns
                    speedup = result.speedup_over(native)
                    rows.append((
                        workload, hosts, topology, scheme,
                        f"{slowdown:.3f}x",
                        f"{speedup:.2f}x",
                        f"{result.local_hit_rate:.1%}",
                        result.migrations,
                    ))
                    metrics.append({
                        "workload": workload,
                        "hosts": hosts,
                        "topology": topology,
                        "scheme": scheme,
                        "exec_time_ns": result.exec_time_ns,
                        "slowdown_vs_flat": round(slowdown, 4),
                        "speedup_over_native": round(speedup, 4),
                        "local_hit_rate": round(result.local_hit_rate, 6),
                        "migrations": result.migrations,
                    })
                    if topology != "flat":
                        ordering_checks.append(
                            (workload, hosts, topology, scheme, result, flat)
                        )
    table = format_table(
        "Fabric topology: slowdown vs flat and speedup over Native",
        ["workload", "hosts", "topology", "scheme", "vs flat",
         "speedup", "local hits", "migrations"],
        rows,
    )
    return table, metrics, ordering_checks


def _write_json(metrics):
    payload = {
        "bench": "topology",
        "scale": bench_scale_name(),
        "runs": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_OUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return JSON_OUT


def test_topology(benchmark):
    table, metrics, ordering_checks = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    write_output("topology", table)
    path = _write_json(metrics)
    print(f"[metrics saved to {path}]")

    for workload, hosts, topology, scheme, result, flat in ordering_checks:
        assert result.exec_time_ns > flat.exec_time_ns, (
            f"a switched fabric must cost time "
            f"({workload}/{scheme}/{topology}@{hosts})"
        )
    speedups = {
        (e["workload"], e["hosts"], e["topology"]): e["speedup_over_native"]
        for e in metrics
        if e["scheme"] == "pipm"
    }
    for (workload, hosts, topology), speedup in speedups.items():
        if topology != "flat":
            flat_speedup = speedups[(workload, hosts, "flat")]
            margin = 1.0 if workload == "pr" else 0.95
            assert speedup >= margin * flat_speedup, (
                f"switching must not erode PIPM's advantage beyond "
                f"{margin:.2f}x of flat ({workload}/{topology}@{hosts}: "
                f"{speedup:.3f}x vs {flat_speedup:.3f}x on flat)"
            )
        if workload == "ycsb":
            assert abs(speedup - 1.0) <= 0.04, (
                f"PIPM must stay within 4% of Native on ycsb "
                f"({topology}@{hosts}: {speedup:.3f}x)"
            )
        if workload == "pr" and hosts <= 16:
            assert speedup > 1.0, (
                f"PIPM must keep beating Native on {topology} "
                f"at {hosts} hosts (pr)"
            )
