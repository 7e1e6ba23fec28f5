"""Explicit-state model checker for the coherence protocol models.

Reproduces the paper's Murphi verification (Section 5.1.4): exhaustively
explore every interleaving of loads/stores/evictions from every host over a
small configuration, and verify

* **SWMR** — single writer *or* multiple readers, never both,
* **data-value integrity** — every load observes the latest store
  (the per-access check that, together with atomic transactions, gives the
  Sequential Consistency result the paper cites),
* **no stuck states** — every reachable state has enabled actions and every
  enabled action applies without error (the atomic-transaction analogue of
  deadlock freedom).

States are canonicalized (version rank-compression) so the reachable space
is finite; the checker does plain BFS with a visited set and reports the
action trace leading to any violation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, List, Tuple


@dataclass
class Violation:
    """One invariant failure plus the trace that exposes it."""

    kind: str
    detail: str
    trace: Tuple[Any, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        steps = " -> ".join(str(a) for a in self.trace) or "<initial>"
        return f"[{self.kind}] {self.detail} via {steps}"


@dataclass
class CheckResult:
    """Outcome of a model-checking run."""

    model_name: str
    states_explored: int
    transitions_explored: int
    violations: List[Violation] = field(default_factory=list)
    exhausted: bool = True  # False if the state cap stopped exploration

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        suffix = "" if self.exhausted else " (state cap reached)"
        return (
            f"{self.model_name}: {status} — {self.states_explored} states, "
            f"{self.transitions_explored} transitions{suffix}"
        )


class ModelChecker:
    """BFS explorer over a protocol model's canonical state graph."""

    def __init__(self, model, max_states: int = 200_000) -> None:
        self.model = model
        self.max_states = max_states

    def run(self, max_violations: int = 10) -> CheckResult:
        model = self.model
        initial = model.canonicalize(model.initial_state())
        result = CheckResult(model_name=model.name, states_explored=0,
                             transitions_explored=0)

        visited = {initial}
        # Queue holds (canonical_state, trace) — traces are kept short by
        # storing tuples of actions (shared structure via tuple concat).
        queue = deque([(initial, ())])

        while queue:
            state, trace = queue.popleft()
            result.states_explored += 1

            for detail in model.invariant_violations(state):
                result.violations.append(Violation("invariant", detail, trace))
                if len(result.violations) >= max_violations:
                    return result

            actions = model.enabled_actions(state)
            if not actions:
                result.violations.append(
                    Violation("deadlock", "state has no enabled actions", trace)
                )
                if len(result.violations) >= max_violations:
                    return result

            for action in actions:
                result.transitions_explored += 1
                try:
                    next_state, obs = model.apply(state, action)
                except Exception as exc:  # stuck transition == protocol bug
                    result.violations.append(
                        Violation("stuck", f"{action}: {exc}", trace + (action,))
                    )
                    if len(result.violations) >= max_violations:
                        return result
                    continue

                read = obs.get("read_version")
                if read is not None and read != obs["latest"]:
                    result.violations.append(
                        Violation(
                            "data-value",
                            f"{action} read version {read}, latest is "
                            f"{obs['latest']}",
                            trace + (action,),
                        )
                    )
                    if len(result.violations) >= max_violations:
                        return result

                canonical = model.canonicalize(next_state)
                if canonical not in visited:
                    if len(visited) >= self.max_states:
                        result.exhausted = False
                        continue
                    visited.add(canonical)
                    queue.append((canonical, trace + (action,)))

        return result


def check_protocol(model, max_states: int = 200_000) -> CheckResult:
    """Convenience wrapper: build a checker and run it."""
    return ModelChecker(model, max_states=max_states).run()
