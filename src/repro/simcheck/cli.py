"""``python -m repro lint`` — the simcheck driver.

Exit codes: ``0`` clean, ``1`` at least one finding, ``2`` usage
problems (unknown scope, bad path).  One invocation runs every
registered AST rule over each in-scope ``.py`` file under the given
paths.  Protocol correctness is not a lint concern: ``repro check``
model-checks the executable protocol models.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import rules as _rules  # noqa: F401  (import populates the registry)
from .engine import LintEngine, SCOPES, all_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--scope", action="append", choices=SCOPES, default=None,
        dest="scopes", metavar="SCOPE",
        help="lint this scope; repeatable (default: src only — "
             "benchmarks/ and tests/ are opt-in)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable report on stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )


def _list_rules() -> int:
    for rule in all_rules():
        scopes = ",".join(rule.scopes)
        print(f"{rule.id:<9} [{scopes}] {rule.title}")
    return 0


def run_lint(args) -> int:
    if args.list_rules:
        return _list_rules()

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    scopes = tuple(args.scopes) if args.scopes else ("src",)
    report = LintEngine(scopes=scopes, root=os.getcwd()).run(args.paths)

    if args.json:
        print(report.to_json())
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simcheck",
        description="static determinism and stats-discipline lints",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
