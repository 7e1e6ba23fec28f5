"""simcheck: static lints for the simulator's determinism contract.

One ``python -m repro lint`` entry point runs an AST lint engine
(:mod:`.engine`, rules in :mod:`.rules`) over the source tree.  Its rule
families each keep their lines by catching a real defect the test suite
misses: DET (wall clocks and unseeded RNG, which poison the
content-addressed result cache), STAT (a stats key used as both counter
and gauge, which a sweep's merge gets wrong) and CON (a ternary whose
branches cannot differ).

Protocol correctness is not checked here: the explicit-state model
checker in :mod:`repro.coherence.checker` (``repro check``) explores the
executable protocol models, and the engine's fast lane is held to the
slow path by differential tests that compare every counter.
"""

from __future__ import annotations

from . import rules as _rules  # noqa: F401  (import populates the registry)
from .engine import LintEngine, Rule, all_rules, lint_source
from .findings import Finding, LintReport

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_source",
]
