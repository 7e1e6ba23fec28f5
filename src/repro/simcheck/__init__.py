"""simcheck: static determinism/unit-safety lints and protocol analysis.

Two halves, one ``python -m repro lint`` entry point:

* an AST lint engine (:mod:`.engine`, rules in :mod:`.rules`) enforcing
  the determinism contract the content-addressed bench cache depends on
  — no wall clocks, no unseeded RNG, no set-order-dependent results —
  plus unit-safety, stats-discipline, mutable-default and robustness
  heuristics;
* a protocol-table analyzer (:mod:`.protocol`) that imports the
  declarative ``TRANSITION_TABLE`` views of the coherence protocols and
  statically checks exhaustiveness, determinism, message closure, and
  wait-for-cycle freedom without simulating a single step, plus a
  drift pass (:mod:`.drift`) that holds those tables to the handler
  code.

Findings share one record type (:mod:`.findings`) and one committed
baseline mechanism (:mod:`.baseline`) so CI fails only on regressions.
The engine's fast lane is not checked here: differential tests run it
against the slow path and compare every counter.
"""

from __future__ import annotations

from . import rules as _rules  # noqa: F401  (import populates the registry)
from .baseline import apply_baseline, load_baseline, write_baseline
from .engine import LintEngine, Rule, all_rules, lint_source
from .findings import Finding, LintReport
from .protocol import ProtocolAnalyzer, analyze_repo_tables, analyze_table

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ProtocolAnalyzer",
    "Rule",
    "all_rules",
    "analyze_repo_tables",
    "analyze_table",
    "apply_baseline",
    "lint_source",
    "load_baseline",
    "write_baseline",
]
