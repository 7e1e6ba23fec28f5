"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       simulate one (workload, scheme) pair and print the summary
``compare``   run several schemes on one workload, normalized to Native
``sweep``     fan a (workload x scheme x variant) matrix across supervised
              workers into the shared result cache (crash-isolated,
              resumable)
``serve``     always-on experiment service: run the specs submitted to a
              spool directory through the sweep runner, park failures
              in rejected/, resume after kill -9, drain gracefully on
              SIGTERM
``check``     model-check the coherence protocols (the Murphi step)
``lint``      static determinism and stats-discipline lints
``workloads`` print the Table 1 inventory
``config``    print the Table 2 system configuration
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from . import __version__
from .analysis.report import format_fault_report, format_table
from .coherence import BaseCxlDsmModel, ModelChecker, PipmModel
from .config import FabricConfig, FaultConfig, SystemConfig
from .sim.harness import DEFAULT_SCHEMES, compare_schemes, run_experiment
from .units import pretty_time
from .workloads import WorkloadScale, workload_names
from .workloads.registry import WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PIPM multi-host CXL-DSM simulator (ASPLOS'26 repro)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload under one scheme")
    run.add_argument("--workload", required=True, choices=workload_names())
    run.add_argument("--scheme", default="pipm")
    run.add_argument("--scale", default="small",
                     choices=WorkloadScale.NAMES)
    run.add_argument("--hosts", type=int, default=4)
    run.add_argument("--link-latency-ns", type=float, default=None)
    run.add_argument("--link-bandwidth-gbs", type=float, default=None)
    run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec: a preset (none, flaky, degraded, storm, "
             "switchdown) optionally followed by :key=value overrides, e.g. "
             "'degraded:seed=3,transfer-error-rate=1e-3'",
    )
    run.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="fabric topology spec: a preset (flat, single-switch, "
             "two-tier) optionally followed by :key=value overrides, e.g. "
             "'two-tier:hosts-per-leaf=4,uplink-bandwidth-gbs=10'",
    )

    compare = sub.add_parser("compare", help="compare schemes on a workload")
    compare.add_argument("--workload", required=True,
                         choices=workload_names())
    compare.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    compare.add_argument("--scale", default="small",
                         choices=WorkloadScale.NAMES)
    compare.add_argument("--hosts", type=int, default=4)
    compare.add_argument("--faults", default=None, metavar="SPEC",
                         help="fault-injection spec (see 'run --faults')")
    compare.add_argument("--topology", default=None, metavar="SPEC",
                         help="fabric topology spec (see 'run --topology')")

    sweep = sub.add_parser(
        "sweep",
        help="run a (workload x scheme x variant) matrix in parallel",
        description=(
            "Fan the evaluation matrix across supervised workers into the "
            "content-addressed result cache; a second invocation over the "
            "same matrix is pure cache hits, and the figure benches "
            "(pytest benchmarks/) read the same cache."
        ),
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="pool size; 0 = one per CPU; 1 = serial")
    sweep.add_argument("--workloads", default=None,
                       help="comma-separated workload subset "
                            "(default: every Table 1 workload, or "
                            "$REPRO_BENCH_WORKLOADS)")
    sweep.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES))
    sweep.add_argument(
        "--scale", default=None, choices=WorkloadScale.NAMES,
        help="trace scale (default: $REPRO_BENCH_SCALE or 'small')",
    )
    sweep.add_argument(
        "--variants", default="base",
        help="comma-separated config variants (see --list-variants)",
    )
    sweep.add_argument(
        "--figures", action="store_true",
        help="the full figure matrix: every variant the fig/table "
             "benches consume",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or benchmarks/.cache)",
    )
    sweep.add_argument("--list", action="store_true", dest="list_specs",
                       help="print the expanded specs and exit")
    sweep.add_argument("--list-variants", action="store_true",
                       help="print the known variants and exit")
    sweep.add_argument(
        "--invalidate", action="store_true",
        help="delete every cached result and trace and the sweep "
             "journal, then exit",
    )
    sweep.add_argument(
        "--require-all-hits", action="store_true",
        help="exit non-zero unless every spec was a cache hit "
             "(CI regression guard)",
    )
    sweep.add_argument(
        "--timeout-s", type=float, default=None, metavar="SECONDS",
        help="per-job timeout; a worker running past it is killed and "
             "recorded as a timeout (default: none)",
    )
    sweep.add_argument(
        "--retries", type=int, default=0,
        help="re-attempts per spec after a failure/timeout (default: 0)",
    )
    sweep.add_argument(
        "--backoff-s", type=float, default=0.25,
        help="base retry backoff; doubles per re-attempt (default: 0.25)",
    )
    sweep.add_argument(
        "--max-backoff-s", type=float, default=60.0,
        help="cap on the doubled retry backoff (default: 60)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip specs the sweep journal records as completed; "
             "re-attempt only failed/missing specs",
    )
    sweep.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any spec failed after its retries "
             "(the default reports failures but exits 0)",
    )

    serve = sub.add_parser(
        "serve",
        help="always-on experiment service (submit/run/status)",
        description=(
            "A persistent daemon in front of the sweep runner: specs "
            "spooled into <dir>/spool run in batches through the same "
            "supervised, resumable path as 'repro sweep --resume', "
            "sharing its result cache and journal.  A done spec leaves "
            "the spool, a failed one is parked in <dir>/rejected, and "
            "kill -9 + restart resumes without re-running completed "
            "work."
        ),
    )
    from .serve.cli import add_serve_arguments

    add_serve_arguments(serve)

    check = sub.add_parser("check", help="model-check the protocols")
    check.add_argument("--hosts", type=int, default=3)

    lint = sub.add_parser(
        "lint",
        help="static determinism and stats-discipline lints",
        description=(
            "simcheck: AST lints for the determinism contract the result "
            "cache depends on (wall clocks, unseeded RNG), stats "
            "discipline (one key, one of counter or gauge) and dead "
            "conditionals.  Protocol correctness is 'check', not lint."
        ),
    )
    from .simcheck.cli import add_lint_arguments

    add_lint_arguments(lint)

    sub.add_parser("workloads", help="list the Table 1 workloads")
    sub.add_parser("config", help="show the Table 2 configuration")
    return parser


def _config_for(args) -> SystemConfig:
    cfg = SystemConfig.scaled(num_hosts=args.hosts)
    if getattr(args, "link_latency_ns", None) is not None:
        cfg = cfg.replace_nested("cxl_link", latency_ns=args.link_latency_ns)
    if getattr(args, "link_bandwidth_gbs", None) is not None:
        cfg = cfg.replace_nested(
            "cxl_link", bandwidth_gbs=args.link_bandwidth_gbs
        )
    if getattr(args, "topology", None) is not None:
        cfg = dataclasses.replace(
            cfg, fabric=FabricConfig.parse(args.topology)
        )
    if getattr(args, "faults", None) is not None:
        cfg = dataclasses.replace(cfg, faults=FaultConfig.parse(args.faults))
    if (
        getattr(args, "topology", None) is not None
        or getattr(args, "faults", None) is not None
    ):
        cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _config_for(args)
    scale = WorkloadScale.named(args.scale)
    result = run_experiment(args.workload, args.scheme, cfg, scale=scale)
    print(result.summary())
    print(f"  exec time        : {pretty_time(result.exec_time_ns)}")
    print(f"  aggregate IPC    : {result.ipc:.2f}")
    print(f"  local hit rate   : {result.local_hit_rate:.1%}")
    print(f"  migrations       : {result.migrations} "
          f"(demotions {result.demotions})")
    if result.mgmt_ns:
        print(f"  kernel mgmt time : {pretty_time(result.mgmt_ns)}")
    if getattr(args, "faults", None) is not None:
        report = format_fault_report(result.stats)
        if report:
            print(report)
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_for(args)
    scale = WorkloadScale.named(args.scale)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if "native" not in schemes:
        schemes.insert(0, "native")
    results = compare_schemes(args.workload, schemes, cfg, scale=scale)
    native = results["native"]
    rows = []
    for name, result in results.items():
        rows.append((
            name,
            f"{result.speedup_over(native):.2f}x",
            f"{result.local_hit_rate:.1%}",
            f"{result.inter_host_stall_fraction(native.exec_time_ns):.1%}",
            result.migrations,
        ))
    print(format_table(
        f"{args.workload}: speedup over Native CXL-DSM "
        f"({args.hosts} hosts, {args.scale} scale)",
        ["scheme", "speedup", "local hits", "interhost stalls", "migrations"],
        rows,
    ))
    if getattr(args, "faults", None) is not None:
        for result in results.values():
            print(f"  {result.resilience_summary()}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import (
        ResultStore,
        SweepJournal,
        SweepRunner,
        TraceStore,
        VARIANTS,
        build_matrix,
    )

    if args.list_variants:
        for name in VARIANTS:
            print(name)
        return 0
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or (
        "benchmarks/.cache"
    )
    if args.invalidate:
        results = ResultStore(cache_dir).clear()
        traces = TraceStore(cache_dir).clear()
        # The journal describes the results just deleted; left behind, a
        # re-run would fold as a second execution of the same spec.
        SweepJournal(cache_dir).clear()
        print(f"invalidated {results} results, {traces} traces and the "
              f"sweep journal under {cache_dir}")
        return 0
    scale_name = args.scale or os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        scale = WorkloadScale.named(scale_name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    elif os.environ.get("REPRO_BENCH_WORKLOADS"):
        workloads = [
            w.strip()
            for w in os.environ["REPRO_BENCH_WORKLOADS"].split(",")
            if w.strip()
        ]
    else:
        workloads = list(workload_names())
    unknown = sorted(set(workloads) - set(workload_names()))
    if unknown:
        print(f"error: unknown workloads {unknown}", file=sys.stderr)
        return 2
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    variants = (
        list(VARIANTS)
        if args.figures
        else [v.strip() for v in args.variants.split(",") if v.strip()]
    )
    specs = build_matrix(workloads, schemes, scale=scale, variants=variants)
    if args.list_specs:
        for spec in specs:
            print(f"{spec.key()[:16]}  {spec.label()}")
        print(f"{len(specs)} specs")
        return 0
    workers = args.workers if args.workers != 0 else (os.cpu_count() or 1)
    print(
        f"sweep: {len(specs)} specs "
        f"({len(workloads)} workloads x {len(schemes)} schemes, "
        f"variants: {', '.join(variants)}; scale {scale_name}) "
        f"across {workers} worker{'s' if workers != 1 else ''} "
        f"-> {cache_dir}"
    )
    runner = SweepRunner(
        specs, cache_dir, workers=workers,
        timeout_s=args.timeout_s, retries=args.retries,
        backoff_s=args.backoff_s, max_backoff_s=args.max_backoff_s,
        resume=args.resume,
    )
    try:
        summary = runner.run(progress=print)
    except KeyboardInterrupt:
        print("\ninterrupted: workers stopped, orphan temp files removed; "
              "re-run with --resume to continue", file=sys.stderr)
        return 130
    hit_pct = f"{summary.hit_rate:.0%}"
    line = (
        f"done: {summary.runs} runs, {summary.hits} cache hits ({hit_pct}), "
        f"{summary.misses} simulated"
    )
    if summary.failed:
        line += f", {summary.failed} FAILED"
    if summary.retried:
        line += f", {summary.retried} retried"
    if summary.skipped:
        line += f", {summary.skipped} resumed"
    line += (
        f"; wall {summary.wall_s:.2f}s, work {summary.work_s:.2f}s"
        + (
            f" ({summary.work_s / summary.wall_s:.2f}x parallel efficiency)"
            if summary.wall_s > 0
            else ""
        )
    )
    print(line)
    for failure in summary.failures:
        tail = failure.error.strip().splitlines()
        print(
            f"  failed: {failure.label} [{failure.status}] after "
            f"{failure.attempts} attempt(s): {tail[-1] if tail else '?'}",
            file=sys.stderr,
        )
    if args.require_all_hits and summary.misses:
        print(
            f"error: --require-all-hits, but {summary.misses} specs "
            f"missed the cache",
            file=sys.stderr,
        )
        return 1
    if args.strict and summary.failed:
        print(
            f"error: --strict, and {summary.failed} spec(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .serve.cli import run_serve

    return run_serve(args)


def _cmd_check(args) -> int:
    failures = 0
    models = [BaseCxlDsmModel(args.hosts)]
    models += [
        PipmModel(args.hosts, remap_host=h) for h in range(args.hosts)
    ]
    for model in models:
        result = ModelChecker(model).run()
        print(result.summary())
        for violation in result.violations:
            print(f"  !! {violation}")
        failures += len(result.violations)
    return 1 if failures else 0


def _cmd_workloads(_args) -> int:
    rows = [
        (info.name, info.suite, f"{info.paper_footprint_gb}GB",
         info.description)
        for info in WORKLOADS.values()
    ]
    print(format_table("Table 1: evaluated workloads",
                       ["name", "suite", "paper footprint", "description"],
                       rows))
    return 0


def _cmd_config(_args) -> int:
    rows = list(SystemConfig.paper().describe().items())
    print(format_table("Table 2: system configuration (paper values)",
                       ["component", "setting"], rows))
    return 0


def _cmd_lint(args) -> int:
    from .simcheck.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "check": _cmd_check,
    "lint": _cmd_lint,
    "workloads": _cmd_workloads,
    "config": _cmd_config,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
