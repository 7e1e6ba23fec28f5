"""Table↔code drift pass (PROTO007).

PR 3's PROTO001–006 verify the declarative ``TRANSITION_TABLE``s in
isolation; nothing verified that the tables still describe the
*executable* models next to them.  This pass closes that gap: it
extracts the ``(state, event)`` pairs each model actually handles and
diffs them, at stimulus granularity, against the table's legal rows.

Extraction combines two sources:

* **Inference** over the dispatch in ``apply()``: each
  ``if action.name == "load": return self._load(...)`` arm binds a
  handler to a table event (``load -> local_load`` etc., plus any
  ``is_write=...`` keyword binding).  The handler body is then walked
  with a three-valued path evaluator per candidate state: the state
  variable comes from the ``cache_state, version = ...caches[host]``
  unpack, state constants from the module's ``_X = int(CacheState.Y)``
  assigns.  A state whose every path raises is *rejected*; a state with
  a non-raising path is *handled*.

* **Annotations** ``# simcheck: handles role(State, event) ...`` on the
  branches that embody remote/device transitions — the atomic-
  transaction models fold those into the local access that triggers
  them, so there is no dispatch arm to infer from.

The diff reports three error shapes, all PROTO007:

* a legal table stimulus with no handling evidence in the model
  (a table row was added — or a model branch deleted — unilaterally);
* a handled/annotated stimulus the table declares illegal-only or does
  not declare at all (the model grew behaviour the table never ratified);
* an inferred-rejected stimulus the table declares legal (the model
  raises where the table promises a transition).

The pass is source-anchored so tests can feed doctored modules/tables
to prove each shape fires.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..coherence.table import ProtocolTable
from .findings import Finding
from .protocol import PROTOCOL_MODULES, _table_line

#: Action names in ``apply()`` dispatch -> table events of the host role.
ACTION_EVENTS = {
    "load": "local_load",
    "store": "local_store",
    "evict": "evict",
}

#: The role whose events the dispatch inference covers.
HOST_ROLE = "host"

_HANDLES_RE = re.compile(r"simcheck:\s*handles\s+(.+)$")
_PAIR_RE = re.compile(r"(\w+)\(\s*(\w+)\s*,\s*(\w+)\s*\)")

Stimulus = Tuple[str, str, str]  # (role, state, event)

_TRUE, _FALSE, _UNKNOWN = True, False, None


def _err(relpath: str, line: int, table: str, message: str) -> Finding:
    return Finding(
        rule="PROTO007",
        path=relpath,
        line=line,
        message=f"{table}: {message}",
        severity="error",
        line_text=f"{table}::drift::{message}",
    )


# ---------------------------------------------------------------------------
# Source extraction
# ---------------------------------------------------------------------------

def _state_constants(tree: ast.Module) -> Dict[str, str]:
    """``_M -> "M"`` from module-level ``_M = int(CacheState.M)``."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "int"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Attribute)
            and isinstance(value.args[0].value, ast.Name)
            and value.args[0].value.id == "CacheState"
        ):
            out[target.id] = value.args[0].attr
    return out


def _model_class(tree: ast.Module) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef) and item.name == "apply"
            for item in node.body
        ):
            return node
    return None


def _dispatch_arms(
    apply_fn: ast.FunctionDef,
) -> List[Tuple[str, str, Dict[str, bool]]]:
    """``(action_name, handler_method, env_bindings)`` per dispatch arm."""
    arms: List[Tuple[str, str, Dict[str, bool]]] = []
    for node in ast.walk(apply_fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "name"
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
        ):
            continue
        action = test.comparators[0].value
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
            ):
                continue
            env: Dict[str, bool] = {}
            for kw in stmt.value.keywords:
                if kw.arg and isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, bool
                ):
                    env[kw.arg] = kw.value.value
            arms.append((action, stmt.value.func.attr, env))
    return arms


def _state_var(handler: ast.FunctionDef) -> Optional[str]:
    """The name bound to this host's cache state, from the
    ``cache_state, version = <caches>[host]`` unpack."""
    for node in ast.walk(handler):
        if not isinstance(node, ast.Assign):
            continue
        target = node.targets[0] if len(node.targets) == 1 else None
        if not (
            isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[0], ast.Name)
        ):
            continue
        value = node.value
        if isinstance(value, ast.Subscript):
            base = value.value
            base_name = (
                base.id
                if isinstance(base, ast.Name)
                else base.attr
                if isinstance(base, ast.Attribute)
                else ""
            )
            if "caches" in base_name:
                return target.elts[0].id
    return None


# ---------------------------------------------------------------------------
# Three-valued path evaluation
# ---------------------------------------------------------------------------

class _PathEval:
    """Does any path through a handler return (vs. every path raising)
    when the state variable holds one concrete label?"""

    def __init__(
        self,
        state_var: Optional[str],
        state_label: str,
        constants: Dict[str, str],
        env: Dict[str, bool],
    ) -> None:
        self.state_var = state_var
        self.state_label = state_label
        self.constants = constants
        self.env = env

    # -- expression truth ----------------------------------------------
    def truth(self, expr: ast.expr):
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1:
            return self._compare(expr)
        if isinstance(expr, ast.Name) and expr.id in self.env:
            return self.env[expr.id]
        if isinstance(expr, ast.Constant) and isinstance(expr.value, bool):
            return expr.value
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            inner = self.truth(expr.operand)
            return _UNKNOWN if inner is _UNKNOWN else not inner
        if isinstance(expr, ast.BoolOp):
            values = [self.truth(v) for v in expr.values]
            if isinstance(expr.op, ast.And):
                if any(v is _FALSE for v in values):
                    return _FALSE
                if all(v is _TRUE for v in values):
                    return _TRUE
                return _UNKNOWN
            if any(v is _TRUE for v in values):
                return _TRUE
            if all(v is _FALSE for v in values):
                return _FALSE
            return _UNKNOWN
        return _UNKNOWN

    def _compare(self, expr: ast.Compare):
        left, op, right = expr.left, expr.ops[0], expr.comparators[0]
        if not (
            isinstance(left, ast.Name) and left.id == self.state_var
        ):
            return _UNKNOWN
        if isinstance(op, (ast.Eq, ast.NotEq)):
            label = self._label_of(right)
            if label is None:
                return _UNKNOWN
            eq = label == self.state_label
            return eq if isinstance(op, ast.Eq) else not eq
        if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
            right, (ast.Tuple, ast.List, ast.Set)
        ):
            labels = [self._label_of(e) for e in right.elts]
            if any(lbl is None for lbl in labels):
                return _UNKNOWN
            member = self.state_label in labels
            return member if isinstance(op, ast.In) else not member
        return _UNKNOWN

    def _label_of(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.constants.get(expr.id)
        return None

    # -- statement outcomes --------------------------------------------
    def outcomes(self, body: Sequence[ast.stmt]) -> Set[str]:
        """{"return", "raise", "fall"} reachable through ``body``."""
        out: Set[str] = set()
        for stmt in body:
            if isinstance(stmt, ast.Return):
                out.add("return")
                return out
            if isinstance(stmt, ast.Raise):
                out.add("raise")
                return out
            if isinstance(stmt, ast.If):
                truth = self.truth(stmt.test)
                branch_out: Set[str] = set()
                if truth is not _FALSE:
                    branch_out |= self.outcomes(stmt.body)
                if truth is not _TRUE:
                    branch_out |= (
                        self.outcomes(stmt.orelse)
                        if stmt.orelse
                        else {"fall"}
                    )
                out |= branch_out - {"fall"}
                if "fall" not in branch_out:
                    return out
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                # Conservative: body may or may not run; terminal
                # outcomes inside are possible, fall-through always is.
                out |= self.outcomes(stmt.body) - {"fall"}
                continue
            if isinstance(stmt, (ast.With, ast.Try)):
                inner = self.outcomes(stmt.body)
                if isinstance(stmt, ast.Try):
                    for handler in stmt.handlers:
                        inner |= self.outcomes(handler.body)
                out |= inner - {"fall"}
                if "fall" not in inner:
                    return out
                continue
            # plain statement: keep walking
        out.add("fall")
        return out


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def _parse_annotations(
    source: str, table: ProtocolTable, relpath: str
) -> Tuple[Dict[Stimulus, int], List[Finding]]:
    """``# simcheck: handles role(State, event)`` pairs with their lines."""
    handled: Dict[Stimulus, int] = {}
    findings: List[Finding] = []
    roles = {role.name: role for role in table.roles}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _HANDLES_RE.search(text)
        if not match:
            continue
        pairs = _PAIR_RE.findall(match.group(1))
        if not pairs:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    table.name,
                    "handles annotation with no role(State, event) pairs",
                )
            )
        for role_name, state, event in pairs:
            role = roles.get(role_name)
            if role is None:
                findings.append(
                    _err(
                        relpath, lineno, table.name,
                        f"handles annotation names unknown role "
                        f"{role_name!r} (roles: {sorted(roles)})",
                    )
                )
                continue
            if state not in role.states:
                findings.append(
                    _err(
                        relpath, lineno, table.name,
                        f"handles annotation names unknown state "
                        f"{role_name}.{state!r} ({list(role.states)})",
                    )
                )
                continue
            if event not in role.events:
                findings.append(
                    _err(
                        relpath, lineno, table.name,
                        f"handles annotation names unknown event "
                        f"{role_name}.{event!r} ({list(role.events)})",
                    )
                )
                continue
            handled.setdefault((role_name, state, event), lineno)
    return handled, findings


def analyze_module_drift(
    source: str,
    table: ProtocolTable,
    relpath: str,
    table_line: int = 1,
) -> List[Finding]:
    """Diff one protocol module's executable model against ``table``."""
    findings: List[Finding] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - tree never commits broken
        return [
            _err(relpath, exc.lineno or 1, table.name,
                 f"drift pass could not parse module: {exc.msg}")
        ]
    lines = source.splitlines()

    handled, findings_ann = _parse_annotations(source, table, relpath)
    findings.extend(findings_ann)

    constants = _state_constants(tree)
    model = _model_class(tree)
    host_role = next(
        (role for role in table.roles if role.name == HOST_ROLE), None
    )
    rejected: Dict[Stimulus, int] = {}
    if model is not None and host_role is not None:
        methods = {
            item.name: item
            for item in model.body
            if isinstance(item, ast.FunctionDef)
        }
        arms = _dispatch_arms(methods["apply"]) if "apply" in methods else []
        for action, handler_name, env in arms:
            event = ACTION_EVENTS.get(action)
            handler = methods.get(handler_name)
            if event is None or handler is None:
                continue
            state_var = _state_var(handler)
            for state in host_role.states:
                if state_var is not None and state not in constants.values():
                    # The model encodes no constant for this table state;
                    # path evaluation can't distinguish it — treat the
                    # handler's behaviour as unknown, not as evidence.
                    continue
                evaluator = _PathEval(state_var, state, constants, dict(env))
                outcome = evaluator.outcomes(handler.body)
                stim = (HOST_ROLE, state, event)
                if "return" in outcome or "fall" in outcome:
                    handled.setdefault(stim, handler.lineno)
                elif outcome == {"raise"}:
                    rejected.setdefault(stim, handler.lineno)

    # -- the diff -------------------------------------------------------
    by_stimulus = table.by_stimulus()
    legal: Set[Stimulus] = set()
    illegal_only: Set[Stimulus] = set()
    for stimulus, rows in by_stimulus.items():
        if any(not row.illegal for row in rows):
            legal.add(stimulus)
        else:
            illegal_only.add(stimulus)

    for stimulus in sorted(legal - set(handled)):
        role, state, event = stimulus
        findings.append(
            _err(
                relpath,
                table_line,
                table.name,
                f"table declares {role}({state}, {event}) legal but the "
                f"model neither handles it (dispatch inference) nor "
                f"claims it via a '# simcheck: handles' annotation",
            )
        )
    for stimulus, lineno in sorted(handled.items()):
        if stimulus in legal:
            continue
        role, state, event = stimulus
        if stimulus in illegal_only:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    table.name,
                    f"model handles {role}({state}, {event}) but the table "
                    f"declares that stimulus illegal",
                )
            )
        else:
            findings.append(
                _err(
                    relpath,
                    lineno,
                    table.name,
                    f"model handles {role}({state}, {event}) but the table "
                    f"has no row for that stimulus at all",
                )
            )
    for stimulus, lineno in sorted(rejected.items()):
        if stimulus in legal:
            role, state, event = stimulus
            findings.append(
                _err(
                    relpath,
                    lineno,
                    table.name,
                    f"table declares {role}({state}, {event}) legal but "
                    f"every model path raises for it",
                )
            )
    return findings


def analyze_repo_drift(
    root: str, relpaths: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], List[str]]:
    """Run the drift pass over the repo's protocol module pair.

    Mirrors :func:`analyze_repo_tables`: ``relpaths`` filters to modules
    in the linted set; returns ``(findings, table_names_checked)``.
    """
    import os

    from ..coherence import base_protocol, pipm_protocol

    wanted = set(relpaths) if relpaths is not None else None
    findings: List[Finding] = []
    checked: List[str] = []
    for relpath, module in (
        (PROTOCOL_MODULES[0], base_protocol),
        (PROTOCOL_MODULES[1], pipm_protocol),
    ):
        if wanted is not None and relpath not in wanted:
            continue
        table = getattr(module, "TRANSITION_TABLE", None)
        if table is None:
            continue  # PROTO005 from the table pass already covers this
        path = os.path.join(root, relpath)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            continue
        findings.extend(
            analyze_module_drift(
                source, table, relpath, table_line=_table_line(path)
            )
        )
        checked.append(table.name)
    return findings, checked
