"""CLI surface for the experiment service: ``repro serve run|submit|status``.

Split from :mod:`repro.cli` so the top-level parser stays readable; the
main CLI wires :func:`add_serve_arguments` under its ``serve``
subcommand and dispatches to :func:`run_serve`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

from ..config import SystemConfig
from ..sweep import ExperimentSpec
from ..workloads import WorkloadScale, workload_names
from .service import ExperimentService, submit_spec
from .status import format_status, pid_alive, read_status


def add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    sub = serve.add_subparsers(dest="serve_command", required=True)

    run = sub.add_parser(
        "run",
        help="run the service loop (drains gracefully on SIGTERM/SIGINT)",
        description=(
            "Watch <dir>/spool for submitted specs and run them, up to "
            "--slots at a time, through the sweep runner with --resume: "
            "a done spec's spool file is deleted, a failed one is parked "
            "in <dir>/rejected.  A kill -9 + restart re-runs only what "
            "is not done.  SIGTERM requests a graceful drain: finish the "
            "running batch, exit 0."
        ),
    )
    run.add_argument("--dir", required=True, dest="root",
                     help="service root (spool/, rejected/, status.json)")
    run.add_argument("--cache-dir", default=None,
                     help="shared result/trace cache and sweep journal "
                          "(default: <dir>/cache)")
    run.add_argument("--slots", type=int, default=2,
                     help="specs per batch, and worker processes; 1 "
                          "without --timeout-s runs in-process "
                          "(default: 2)")
    run.add_argument("--timeout-s", type=float, default=None,
                     help="per-attempt timeout (default: none)")
    run.add_argument("--retries", type=int, default=1,
                     help="re-attempts per spec after a failure or "
                          "timeout (default: 1)")
    run.add_argument("--backoff-s", type=float, default=0.25,
                     help="base retry backoff; doubles per re-attempt "
                          "(default: 0.25)")
    run.add_argument("--max-backoff-s", type=float, default=30.0,
                     help="cap on the doubled retry backoff "
                          "(default: 30)")
    run.add_argument("--exit-when-idle", action="store_true",
                     help="exit 0 once the spool is empty (batch mode; "
                          "parked specs stay in rejected/)")

    submit = sub.add_parser(
        "submit",
        help="build a spec and drop it into a service's spool",
    )
    submit.add_argument("--dir", required=True, dest="root")
    submit.add_argument("--spec-file", action="append", default=[],
                        metavar="FILE",
                        help="submit spec JSON file(s) verbatim "
                             "(repeatable)")
    submit.add_argument("--workload", default=None,
                        choices=workload_names())
    submit.add_argument("--scheme", default="pipm")
    submit.add_argument("--scale", default="tiny",
                        choices=WorkloadScale.NAMES)
    submit.add_argument("--hosts", type=int, default=4)
    submit.add_argument(
        "--scheme-kwargs", default=None, metavar="K=V[,K=V...]",
        help="extra scheme constructor kwargs (ints/floats/strings)",
    )

    status = sub.add_parser(
        "status",
        help="print the service's latest health snapshot",
    )
    status.add_argument("--dir", required=True, dest="root")
    status.add_argument("--json", action="store_true", dest="as_json")


def _parse_kwargs(raw: str) -> Dict[str, Any]:
    kwargs: Dict[str, Any] = {}
    for token in filter(None, (t.strip() for t in raw.split(","))):
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"bad scheme kwarg {token!r} (want K=V)")
        value = value.strip()
        try:
            kwargs[key.strip()] = int(value)
        except ValueError:
            try:
                kwargs[key.strip()] = float(value)
            except ValueError:
                kwargs[key.strip()] = value
    return kwargs


def _cmd_run(args) -> int:
    service = ExperimentService(
        args.root, cache_dir=args.cache_dir, slots=args.slots,
        timeout_s=args.timeout_s, retries=args.retries,
        backoff_s=args.backoff_s, max_backoff_s=args.max_backoff_s,
    )
    print(f"serve: root {args.root}, cache {service.cache_dir}, "
          f"{service.slots} slot(s)")
    return service.run(
        exit_when_idle=args.exit_when_idle,
        install_signals=True,
        progress=print,
    )


def _cmd_submit(args) -> int:
    specs = []
    for name in args.spec_file:
        try:
            data = json.loads(Path(name).read_text())
            specs.append(ExperimentSpec.from_dict(
                data.get("spec", data) if isinstance(data, dict) else data
            ))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    if args.workload is not None:
        scheme_kwargs = (
            _parse_kwargs(args.scheme_kwargs) if args.scheme_kwargs else {}
        )
        specs.append(ExperimentSpec.build(
            args.workload, args.scheme,
            config=SystemConfig.scaled(num_hosts=args.hosts),
            scale=WorkloadScale.named(args.scale),
            scheme_kwargs=scheme_kwargs,
        ))
    if not specs:
        print("error: nothing to submit (give --workload or --spec-file)",
              file=sys.stderr)
        return 2
    for spec in specs:
        path = submit_spec(args.root, spec)
        print(f"submitted {spec.key()[:16]}  {spec.label()} -> {path}")
    return 0


def _cmd_status(args) -> int:
    status = read_status(args.root)
    if status is None:
        print(f"error: no status snapshot under {args.root} "
              f"(service never started?)", file=sys.stderr)
        return 1
    alive = pid_alive(status.pid)
    if args.as_json:
        payload = status.to_dict()
        payload["alive"] = alive
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(format_status(status, alive))
    # Exit 0 for a healthy or cleanly drained service; 1 for a corpse.
    return 0 if alive or status.state == "drained" else 1


def run_serve(args) -> int:
    handler = {
        "run": _cmd_run,
        "submit": _cmd_submit,
        "status": _cmd_status,
    }[args.serve_command]
    return handler(args)
