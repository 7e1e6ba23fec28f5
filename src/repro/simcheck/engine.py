"""The AST lint engine: rule registry, file walking, scopes.

Rules are small visitor-style objects registered by module import (see
:mod:`repro.simcheck.rules`).  The engine parses each target file once,
hands every applicable rule a shared :class:`FileContext`, and returns
the findings.  Every finding fails the run: a false positive is fixed in
the rule that raised it, not silenced at the call site.

Scopes
------
Files are classified by path: anything under a ``tests``/``benchmarks``
directory gets that scope, everything else is ``src``.  A rule declares
which scopes it is meaningful for (simulator determinism rules make no
sense in tests, which may use throwaway randomness); the engine runs a
rule on a file only when both the rule and the requested scope set allow
it.  ``src`` is the only scope linted by default — ``benchmarks`` and
``tests`` are opt-in via ``python -m repro lint --scope``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .findings import Finding, LintReport

SCOPES = ("src", "benchmarks", "tests")


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file (parsed once)."""

    relpath: str  # repo-relative, '/'-separated
    scope: str
    tree: ast.AST

    def finding(self, rule: str, node, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (stable, unique), ``title``, and ``scopes``,
    and implement :meth:`check`.
    """

    id: str = ""
    title: str = ""
    scopes: Tuple[str, ...] = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding one instance of a rule to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def classify_scope(relpath: str) -> str:
    parts = relpath.replace(os.sep, "/").split("/")
    if "tests" in parts:
        return "tests"
    if "benchmarks" in parts:
        return "benchmarks"
    return "src"


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files accepted verbatim)."""
    seen: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    yield full


def relativize(path: str, root: Optional[str] = None) -> str:
    root = root or os.getcwd()
    try:
        rel = os.path.relpath(os.path.abspath(path), root)
    except ValueError:  # different drive (windows); keep absolute
        rel = path
    return rel.replace(os.sep, "/")


def _check(ctx: FileContext, rules: Iterable[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if ctx.scope in rule.scopes:
            findings.extend(rule.check(ctx))
    return findings


class LintEngine:
    """Run every applicable registered rule over a set of paths."""

    def __init__(
        self,
        scopes: Iterable[str] = ("src",),
        rules: Optional[Iterable[Rule]] = None,
        root: Optional[str] = None,
    ) -> None:
        for scope in scopes:
            if scope not in SCOPES:
                raise ValueError(
                    f"unknown scope {scope!r}; choose from {SCOPES}"
                )
        self.scopes = tuple(scopes)
        self.rules = list(rules) if rules is not None else all_rules()
        self.root = root or os.getcwd()

    def lint_file(self, path: str) -> Tuple[List[Finding], bool]:
        """Findings, and whether the file was in scope."""
        relpath = relativize(path, self.root)
        scope = classify_scope(relpath)
        if scope not in self.scopes:
            return [], False
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(
                    rule="SYNTAX",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ], True
        ctx = FileContext(relpath=relpath, scope=scope, tree=tree)
        return _check(ctx, self.rules), True

    def run(self, paths: Iterable[str]) -> LintReport:
        report = LintReport()
        for path in iter_python_files(paths):
            findings, checked = self.lint_file(path)
            report.findings.extend(findings)
            if checked:
                report.files_checked += 1
        report.sort()
        return report


def lint_source(
    source: str,
    relpath: str = "src/repro/snippet.py",
    rules: Optional[Iterable[Rule]] = None,
    scope: Optional[str] = None,
) -> List[Finding]:
    """Lint a source string — the golden-test entry point."""
    ctx = FileContext(
        relpath=relpath,
        scope=scope or classify_scope(relpath),
        tree=ast.parse(source),
    )
    findings = _check(ctx, rules if rules is not None else all_rules())
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
