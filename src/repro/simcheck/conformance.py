"""Fast-lane conformance pass: the lane's closures vs. the slow path.

The engine's single run loop (:meth:`SimulationEngine.run` in
``src/repro/sim/engine.py``) gives each host a *fast lane*: it resolves
private L1 hits inline and hands L1 misses to closures built by
``_make_flat_path``/``_make_dram_path``, which hand-flatten
:meth:`MultiHostSystem.access`.  Any access the lane declines falls
through to the slow path in the same loop.  The flattening is only
correct while three structural invariants hold; golden records and the
lane on/off differential tests check them at runtime, and this pass
proves them statically on every lint run:

VEC001 — every deferred statistic cell the hot closure increments is
    folded into a real counter by the factory's ``flush()``.  A cell
    that is incremented but never read in flush silently *drops* those
    statistics from the run's records.

VEC002 — the slow path's escalation branches and the lane's bail
    predicates form the same set.  Escalations are annotated
    ``# simcheck: escalates[tag]`` in ``system.py``; bails are
    annotated ``# simcheck: bails[tag]`` in ``engine.py`` — in the
    closures and in the run loop's lane branch alike.  A tag on one
    side without its twin on the other — or an unannotated
    ``return None`` in the classify phase, or an unannotated
    ``self._upgrade(...)`` escalation call — is an error.

VEC003 — the classify phase of ``flat`` (between the
    ``# simcheck: phase[classify]`` and ``# simcheck: phase[execute]``
    markers) performs no writes: no attribute/subscript stores, no
    augmented assignment to deferred cells, no deletes, no calls to
    container mutators.  Purity is what makes a bail safe — the slow
    path re-executes the access from scratch.

VEC004 — every folded cell is reset to zero in ``flush()``; folding
    without resetting double-counts on the next flush.

The pass is source-anchored, not import-anchored: tests feed it
doctored copies of the real sources to prove each rule fires.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding

#: The module pair this pass diffs, relative to the repo root.
CONFORMANCE_MODULES = (
    "src/repro/sim/engine.py",
    "src/repro/sim/system.py",
)

_BAILS_RE = re.compile(r"simcheck:\s*bails\[([\w-]+)\]")
_ESCALATES_RE = re.compile(r"simcheck:\s*escalates\[([\w-]+)\]")
_PHASE_RE = re.compile(r"simcheck:\s*phase\[(\w+)\]")

#: Method names that mutate their receiver; calling one in the classify
#: phase would leave state changed before a potential bail.
MUTATOR_METHODS = frozenset(
    {
        "pop", "add", "append", "extend", "insert", "remove", "discard",
        "clear", "update", "setdefault", "popitem", "sort", "write_line",
        "invalidate_line", "downgrade_line", "touch",
    }
)

#: Factory functions whose inner closures the pass analyzes.
FACTORY_NAMES = ("_make_flat_path", "_make_dram_path")

#: The hot closure holding the two-phase classify/execute split.
PHASED_CLOSURE = "flat"


def _err(relpath: str, line: int, rule: str, message: str, line_text: str = "") -> Finding:
    return Finding(
        rule=rule,
        path=relpath,
        line=line,
        message=message,
        severity="error",
        line_text=line_text,
    )


def _tags_with_lines(source: str, regex: re.Pattern) -> Dict[str, List[int]]:
    out: Dict[str, List[int]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in regex.finditer(text):
            out.setdefault(match.group(1), []).append(lineno)
    return out


def _line_annotated(lines: List[str], lineno: int, regex: re.Pattern) -> bool:
    """Annotation on the statement's line or the comment line above it."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and regex.search(lines[candidate - 1]):
            return True
    return False


class _Factory:
    """One ``_make_*`` factory: its hot closures and its flush."""

    def __init__(self, node: ast.FunctionDef) -> None:
        self.node = node
        self.flush: Optional[ast.FunctionDef] = None
        self.hot: List[ast.FunctionDef] = []
        self.list_cells: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                if stmt.name == "flush":
                    self.flush = stmt
                else:
                    self.hot.append(stmt)
            elif isinstance(stmt, ast.Assign):
                # pend_n = [0] * n_ch style list cells.
                value = stmt.value
                is_zero_list = (
                    isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Mult)
                    and isinstance(value.left, ast.List)
                    and all(
                        isinstance(e, ast.Constant) and e.value == 0
                        for e in value.left.elts
                    )
                )
                if is_zero_list:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.list_cells.add(target.id)

    # -- cell inventories ----------------------------------------------
    def scalar_cells(self) -> Set[str]:
        """Names declared nonlocal by flush: the deferred-stat contract."""
        if self.flush is None:
            return set()
        cells: Set[str] = set()
        for node in ast.walk(self.flush):
            if isinstance(node, ast.Nonlocal):
                cells.update(node.names)
        return cells

    def incremented_scalars(self) -> Dict[str, int]:
        """cell -> first line where a hot closure increments it."""
        out: Dict[str, int] = {}
        cells = self.scalar_cells()
        for fn in self.hot:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id in cells
                ):
                    out.setdefault(node.target.id, node.lineno)
        return out

    def incremented_lists(self) -> Dict[str, int]:
        """list cell -> first line where a hot closure increments a slot."""
        out: Dict[str, int] = {}
        for fn in self.hot:
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Subscript)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id in self.list_cells
                ):
                    out.setdefault(node.target.value.id, node.lineno)
        return out

    def flush_reads(self) -> Set[str]:
        """Names the flush *reads* (the fold): scalar Name loads and
        list-cell subscript loads."""
        reads: Set[str] = set()
        if self.flush is None:
            return reads
        for node in ast.walk(self.flush):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
        return reads

    def flush_resets(self) -> Set[str]:
        """Cells flush resets to zero: chained ``a = b = 0`` scalar
        assigns and ``cell[i] = 0`` subscript stores."""
        resets: Set[str] = set()
        if self.flush is None:
            return resets
        for node in ast.walk(self.flush):
            if not isinstance(node, ast.Assign):
                continue
            if not (
                isinstance(node.value, ast.Constant) and node.value.value == 0
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    resets.add(target.id)
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    resets.add(target.value.id)
        return resets


def _find_factories(tree: ast.Module) -> List[_Factory]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in FACTORY_NAMES:
            out.append(_Factory(node))
    return out


def _classify_region(
    flat: ast.FunctionDef, lines: List[str]
) -> Optional[Tuple[int, int]]:
    """(classify_marker_line, execute_marker_line) inside ``flat``."""
    markers: Dict[str, int] = {}
    start, end = flat.lineno, max(
        getattr(n, "end_lineno", flat.lineno) for n in ast.walk(flat)
    )
    for lineno in range(start, min(end, len(lines)) + 1):
        match = _PHASE_RE.search(lines[lineno - 1])
        if match:
            markers.setdefault(match.group(1), lineno)
    if "classify" in markers and "execute" in markers:
        return markers["classify"], markers["execute"]
    return None


def analyze_backend_conformance(
    engine_source: str,
    system_source: str,
    engine_relpath: str = CONFORMANCE_MODULES[0],
    system_relpath: str = CONFORMANCE_MODULES[1],
) -> List[Finding]:
    """Run VEC001–VEC004 over one engine/system source pair."""
    findings: List[Finding] = []
    try:
        engine_tree = ast.parse(engine_source)
        ast.parse(system_source)
    except SyntaxError as exc:  # pragma: no cover - tree never commits broken
        return [
            _err(
                engine_relpath,
                exc.lineno or 1,
                "VEC001",
                f"conformance pass could not parse sources: {exc.msg}",
            )
        ]
    engine_lines = engine_source.splitlines()
    system_lines = system_source.splitlines()

    factories = _find_factories(engine_tree)
    if not factories:
        findings.append(
            _err(
                engine_relpath,
                1,
                "VEC001",
                "no _make_flat_path/_make_dram_path factory found; the "
                "conformance pass has lost its anchor — update "
                "simcheck/conformance.py alongside the engine refactor",
            )
        )
        return findings

    for factory in factories:
        findings.extend(_check_cells(factory, engine_relpath, engine_lines))

    findings.extend(
        _check_escalations(
            engine_source,
            system_source,
            engine_relpath,
            system_relpath,
            factories,
            engine_lines,
            system_lines,
        )
    )
    for factory in factories:
        findings.extend(_check_purity(factory, engine_relpath, engine_lines))
    return findings


def _check_cells(
    factory: _Factory, relpath: str, lines: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    name = factory.node.name
    if factory.flush is None:
        findings.append(
            _err(
                relpath,
                factory.node.lineno,
                "VEC001",
                f"{name} builds a hot path but defines no flush(); "
                f"deferred statistics can never fold back",
            )
        )
        return findings
    reads = factory.flush_reads()
    resets = factory.flush_resets()

    for cell, lineno in sorted(factory.incremented_scalars().items()):
        if cell not in reads:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    "VEC001",
                    f"{name}: deferred cell '{cell}' is incremented on the "
                    f"hot path but never folded in flush(); its counts are "
                    f"silently dropped from the run's records",
                    line_text=f"{name}::{cell}",
                )
            )
        elif cell not in resets:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    "VEC004",
                    f"{name}: deferred cell '{cell}' is folded but never "
                    f"reset to 0 in flush(); the next flush double-counts it",
                    line_text=f"{name}::{cell}",
                )
            )
    for cell, lineno in sorted(factory.incremented_lists().items()):
        if cell not in reads:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    "VEC001",
                    f"{name}: deferred slot array '{cell}' is incremented "
                    f"on the hot path but never read in flush()",
                    line_text=f"{name}::{cell}",
                )
            )
        elif cell not in resets:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    "VEC004",
                    f"{name}: deferred slot array '{cell}' is folded but "
                    f"never zeroed in flush(); the next flush double-counts",
                    line_text=f"{name}::{cell}",
                )
            )
    return findings


def _check_escalations(
    engine_source: str,
    system_source: str,
    engine_relpath: str,
    system_relpath: str,
    factories: List[_Factory],
    engine_lines: List[str],
    system_lines: List[str],
) -> List[Finding]:
    findings: List[Finding] = []
    bails = _tags_with_lines(engine_source, _BAILS_RE)
    escalates = _tags_with_lines(system_source, _ESCALATES_RE)

    for tag in sorted(set(escalates) - set(bails)):
        findings.append(
            _err(
                system_relpath,
                escalates[tag][0],
                "VEC002",
                f"slow path escalates[{tag}] has no matching bails[{tag}] "
                f"in the fast lane; the lane would execute an access the "
                f"slow path treats as a cross-host transaction",
                line_text=f"escalates::{tag}",
            )
        )
    for tag in sorted(set(bails) - set(escalates)):
        findings.append(
            _err(
                engine_relpath,
                bails[tag][0],
                "VEC002",
                f"fast lane bails[{tag}] has no matching escalates[{tag}] "
                f"annotation in the slow path; either the escalation branch "
                f"was removed (delete the bail) or its annotation was lost",
                line_text=f"bails::{tag}",
            )
        )

    # Inference anchors: every classify-phase `return None` must carry a
    # bails tag, and every slow-path `_upgrade(` escalation call must
    # carry an escalates tag — so new branches can't slip in untagged.
    for factory in factories:
        for fn in factory.hot:
            if fn.name != PHASED_CLOSURE:
                continue
            region = _classify_region(fn, engine_lines)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Return):
                    continue
                is_none = node.value is None or (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None
                )
                if not is_none:
                    continue
                in_region = region is None or (
                    region[0] < node.lineno < region[1]
                )
                if in_region and not _line_annotated(
                    engine_lines, node.lineno, _BAILS_RE
                ):
                    findings.append(
                        _err(
                            engine_relpath,
                            node.lineno,
                            "VEC002",
                            "classify-phase bail without a "
                            "'# simcheck: bails[tag]' annotation; name the "
                            "slow-path escalation this defers to",
                        )
                    )
    for lineno, text in enumerate(system_lines, start=1):
        if "self._upgrade(" in text and not _line_annotated(
            system_lines, lineno, _ESCALATES_RE
        ):
            stripped = text.lstrip()
            if stripped.startswith("def ") or stripped.startswith("#"):
                continue
            findings.append(
                _err(
                    system_relpath,
                    lineno,
                    "VEC002",
                    "coherence-upgrade escalation without a "
                    "'# simcheck: escalates[tag]' annotation; the fast "
                    "path needs a matching bail predicate",
                )
            )
    return findings


def _check_purity(
    factory: _Factory, relpath: str, lines: List[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for fn in factory.hot:
        if fn.name != PHASED_CLOSURE:
            continue
        region = _classify_region(fn, lines)
        if region is None:
            findings.append(
                _err(
                    relpath,
                    fn.lineno,
                    "VEC003",
                    f"{factory.node.name}::{fn.name} has no "
                    f"'# simcheck: phase[classify]' / 'phase[execute]' "
                    f"markers; the purity check cannot locate the "
                    f"classify region",
                )
            )
            continue
        lo, hi = region
        nonlocals: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Nonlocal):
                nonlocals.update(node.names)
        for node in ast.walk(fn):
            lineno = getattr(node, "lineno", None)
            if lineno is None or not (lo < lineno < hi):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        findings.append(
                            _err(
                                relpath,
                                lineno,
                                "VEC003",
                                "classify phase writes engine/cache/"
                                "directory state; a bail after this point "
                                "would leave the mutation behind for the "
                                "slow path to double-apply",
                            )
                        )
            elif isinstance(node, ast.AugAssign):
                bad = isinstance(
                    node.target, (ast.Attribute, ast.Subscript)
                ) or (
                    isinstance(node.target, ast.Name)
                    and node.target.id in nonlocals
                )
                if bad:
                    findings.append(
                        _err(
                            relpath,
                            lineno,
                            "VEC003",
                            "classify phase mutates a deferred cell or "
                            "shared object; bails must leave zero state "
                            "changed",
                        )
                    )
            elif isinstance(node, ast.Delete):
                findings.append(
                    _err(
                        relpath,
                        lineno,
                        "VEC003",
                        "classify phase deletes state; bails must leave "
                        "zero state changed",
                    )
                )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                ):
                    findings.append(
                        _err(
                            relpath,
                            lineno,
                            "VEC003",
                            f"classify phase calls mutator "
                            f"'.{node.func.attr}(...)'; only pure reads "
                            f"are allowed before the execute marker",
                        )
                    )
    return findings


def analyze_repo_conformance(
    root: Path, relpaths: Iterable[str]
) -> Tuple[List[Finding], bool]:
    """Run the pass when the linted set includes the engine module.

    Returns ``(findings, ran)`` — ``ran`` is False when the scope left
    out the engine (e.g. linting a single unrelated file).
    """
    relset = set(relpaths)
    if CONFORMANCE_MODULES[0] not in relset:
        return [], False
    try:
        engine_source = (root / CONFORMANCE_MODULES[0]).read_text()
        system_source = (root / CONFORMANCE_MODULES[1]).read_text()
    except OSError as exc:
        return (
            [
                _err(
                    CONFORMANCE_MODULES[0],
                    1,
                    "VEC002",
                    f"conformance pass could not read module pair: {exc}",
                )
            ],
            True,
        )
    return analyze_backend_conformance(engine_source, system_source), True
