"""Finding records produced by the AST lint engine.

A finding pins a rule violation to a file and line.  Every finding is an
error that fails the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str  # repo-relative, '/'-separated
    line: int
    message: str
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def sort(self) -> None:
        self.findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "errors": len(self.findings),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )

    def summary(self) -> str:
        return (
            f"simcheck: {self.files_checked} files, "
            f"{len(self.findings)} error(s)"
        )
