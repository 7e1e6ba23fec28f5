"""Benchmark entry point: time one workload's full spec, end to end.

    python3 specbench/run.py --workload pipm-pr-4h --seed 7 --seconds 30 --trace 0

``--trace 0`` repeats the untraced spec for ``--seconds`` and reports the
end-to-end metrics over the repeats: run-phase throughput and mean spec
time over all repeats and median set-up time, each scaled to the
reference host pace (``reference.py``), and peak RSS after the first
repeat (see README.md, "Noise").  ``--trace 1`` runs the spec once
untraced, then under cProfile (one profiler per phase) for the rest of
``--seconds``, and reports the per-layer metrics.  Every repeat's record
is checked (conservation identities, identical digests; traced runs also
identical call counts); a repeat failing a check counts as failed.  The
last stdout line is the result object; the line before it holds the
details (host fingerprint, per-repeat times, record digest).
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import reference

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_REPEATS = 3
NAMED_UNITS = {
    "accesses_per_s": "acc/s",
    "peak_rss_mb": "MB",
    "link.bytes": "B",
    "record.digest48": "hash",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (WorkloadScale.seed)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="fault-plan seed (default: --seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", type=Path, default=None,
                        help="also write the detailed result to this file")
    return parser.parse_args(argv)


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    if name.endswith("calls_per_access"):
        return "calls/acc"
    if name.endswith(("_share", "_frac", "_rate")):
        return "frac"
    for suffix, unit in (("_s", "s"), ("_ns", "ns"), ("_x", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


def repeat_for(seconds: float, minimum: int, spec):
    """Call ``spec()`` at least ``minimum`` times and until ``seconds`` pass.

    No repeat starts that would, at the mean pace so far, end past the
    budget.
    """
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(spec())
        elapsed = time.perf_counter() - start
        projected = elapsed * (len(runs) + 1) / len(runs)
        if len(runs) >= minimum and projected > seconds:
            return runs


def cpu_rotation():
    """A function that pins this process to the next allowed CPU in turn.

    On a shared virtual machine one vCPU can run slower than another for
    tens of seconds while the scheduler keeps the process on it.  Rotating
    the repeats spreads a run over every CPU, and pinning keeps a repeat
    and the reference loops timed around it on the same one.
    """
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    return lambda: os.sched_setaffinity(0, {next(cpus)})


def check_runs(harness, runs) -> dict:
    """Repeat index -> its failed checks, for failing repeats only."""
    digests = [run.digest for run in runs]
    reference = collections.Counter(digests).most_common(1)[0][0]
    problems = {}
    for index, run in enumerate(runs):
        failures = harness.conservation_problems(run)
        if run.digest != reference:
            failures.append("record digest differs from the other repeats")
        if failures:
            problems[index] = failures
    return problems


def end_to_end(harness, workload, args):
    next_cpu = cpu_rotation()
    sampler = reference.PaceSampler()

    def spec():
        next_cpu()
        return harness.run_spec(
            workload, args.seed, args.fault_seed, sampler=sampler
        )

    start = time.perf_counter()
    with sampler:
        first = spec()
        # One spec's peak; later repeats only add allocator fragmentation.
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        runs = [first, *repeat_for(
            args.seconds - (time.perf_counter() - start),
            MIN_REPEATS - 1, spec,
        )]
    # The host's pace changes within a repeat, so the times are pooled
    # over the whole run and scaled by the slowdown pooled over the run.
    slowdown = sampler.slowdown()
    metrics = {
        "accesses_per_s": sum(r.accesses for r in runs) * slowdown
        / sum(r.seconds["run"] for r in runs),
        "spec_s": statistics.fmean(r.spec_s for r in runs) / slowdown,
        "setup_s": statistics.median(r.setup_s for r in runs) / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"slowdown": slowdown, "slices": len(sampler.slices)}
    return runs, check_runs(harness, runs), metrics, extra


def per_layer(harness, workload, args, min_traced=1):
    folder = harness.default_folder()
    next_cpu = cpu_rotation()

    def spec(traced):
        next_cpu()
        return harness.run_spec(
            workload, args.seed, args.fault_seed, traced=traced
        )

    start = time.perf_counter()
    untraced = spec(traced=False)
    remaining = args.seconds - (time.perf_counter() - start)
    traced = repeat_for(remaining, min_traced, lambda: spec(traced=True))
    runs = [untraced, *traced]
    problems = check_runs(harness, runs)
    profiles = [harness.layer_profile(run, folder) for run in traced]
    calls = {k: v for k, v in profiles[0].items()
             if k.endswith("calls_per_access")}
    for index, profile in enumerate(profiles[1:], start=2):
        moved = sorted(k for k in calls if profile[k] != calls[k])
        if moved:
            problems.setdefault(index, []).append(
                f"calls_per_access changed for {', '.join(moved)}"
            )
    metrics = dict(calls)
    for key in profiles[0]:
        if key.endswith("self_share"):
            metrics[key] = statistics.median(p[key] for p in profiles)
    for phase in harness.PHASES:
        metrics[f"phase.{phase}_s"] = statistics.median(
            run.seconds[phase] for run in traced
        )
    metrics["trace.overhead_x"] = (
        metrics["phase.run_s"] / untraced.seconds["run"]
    )
    metrics.update(harness.identity_counters(untraced))
    return runs, problems, metrics, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.fault_seed is None:
        args.fault_seed = args.seed
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"specbench: no simulator source at {SRC / 'repro'}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # needs the checkout's src on sys.path

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"specbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    runs, problems, metrics, extra = measure(harness, workload, args)
    for index, failures in sorted(problems.items()):
        print(f"specbench: {args.workload} repeat {index}: "
              f"{'; '.join(failures)}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fault_seed": args.fault_seed,
        "trace": args.trace,
        "fingerprint": harness.host_fingerprint(),
        "record_digest": runs[0].digest,
        "problems": {str(i): failures for i, failures in problems.items()},
        "repeats": [
            {"accesses": run.accesses, "traced": run.profiles is not None,
             "seconds": run.seconds}
            for run in runs
        ],
        **extra,
    }
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps({**detail, "result": result}, indent=2) + "\n"
        )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
