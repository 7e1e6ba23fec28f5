"""Chaos soak harness: randomized fault schedules under a fail-fast auditor.

Each trial draws a randomized (workload, scheme) pair and a randomized
fault-clause schedule from one seeded RNG, folds the clauses into a
:class:`~repro.config.FaultConfig` with the
:class:`~repro.faults.watchdog.InvariantWatchdog` armed in fail-fast
mode, and runs the simulation uncached.  A healthy system survives any
random fault schedule with consistent state — so a watchdog violation
(or any crash) is a finding, not noise.

On the first failure the harness:

1. re-runs the identical trial to confirm the failure is deterministic
   (everything is a pure function of the seeds, so it must be);
2. delta-debugs the clause schedule (:func:`~repro.soak.minimize.ddmin`)
   down to a 1-minimal failing sub-schedule;
3. emits a JSON reproducer artifact embedding the fully-serialized
   minimal :class:`~repro.sweep.spec.ExperimentSpec`;
4. re-executes the artifact through the same path ``soak --replay``
   uses, verifying the reproducer stands alone.

Failures are matched by *signature* — exception type plus the watchdog's
violation kinds — not by message text, which embeds page addresses that
legitimately shift as the schedule shrinks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import random

from ..config import SystemConfig
from ..faults.watchdog import WatchdogError
from ..sim.harness import run_experiment_spec
from ..sweep.spec import ExperimentSpec
from ..sweep.store import atomic_write_json
from ..workloads.trace import WorkloadScale
from .clauses import FaultClause, build_fault_config, draw_clauses
from .minimize import ddmin

#: Reproducer artifact format version.
ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class FailureSignature:
    """What makes two failures "the same" across schedule shrinking."""

    exc_type: str
    kinds: Tuple[str, ...]  # watchdog violation kinds; empty for crashes
    message: str  # informational only; never compared

    def matches(self, other: Optional["FailureSignature"]) -> bool:
        return (
            other is not None
            and self.exc_type == other.exc_type
            and self.kinds == other.kinds
        )

    def to_dict(self) -> dict:
        return {
            "exc_type": self.exc_type,
            "kinds": list(self.kinds),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureSignature":
        return cls(
            exc_type=data["exc_type"],
            kinds=tuple(data.get("kinds") or ()),
            message=str(data.get("message", "")),
        )


def run_trial(spec: ExperimentSpec) -> Optional[FailureSignature]:
    """Run one spec uncached; None = survived, signature = failed."""
    try:
        run_experiment_spec(spec)
    except WatchdogError as exc:
        return FailureSignature(
            exc_type="WatchdogError",
            kinds=tuple(exc.kinds),
            message=str(exc)[:500],
        )
    except Exception as exc:  # any crash is a finding
        return FailureSignature(
            exc_type=type(exc).__name__,
            kinds=(),
            message=str(exc)[:500],
        )
    return None


@dataclass(frozen=True)
class SoakTrial:
    """One fully-determined trial: identity plus its clause schedule."""

    seed: int  # the FaultConfig seed (derived from the soak seed)
    workload: str
    scheme: str
    scale_name: str
    num_hosts: int
    clauses: Tuple[FaultClause, ...]
    watchdog_period_ns: float

    def spec(
        self, clauses: Optional[Sequence[FaultClause]] = None
    ) -> ExperimentSpec:
        """The trial's executable spec, optionally with a sub-schedule."""
        use = tuple(self.clauses if clauses is None else clauses)
        faults = build_fault_config(
            use, seed=self.seed,
            watchdog_period_ns=self.watchdog_period_ns,
        )
        config = SystemConfig.scaled(num_hosts=self.num_hosts).replace(
            faults=faults
        )
        return ExperimentSpec.build(
            workload=self.workload,
            scheme=self.scheme,
            config=config,
            scale=WorkloadScale.named(self.scale_name),
        )

    def describe(self) -> str:
        inner = " + ".join(c.describe() for c in self.clauses) or "(idle)"
        return f"{self.workload}/{self.scheme} seed={self.seed} {inner}"


@dataclass
class SoakReport:
    """What one soak invocation found."""

    trials_run: int = 0
    wall_s: float = 0.0
    failure_found: bool = False
    trial_index: int = -1
    signature: Optional[FailureSignature] = None
    deterministic: bool = False
    original_clause_count: int = 0
    minimal_clauses: List[FaultClause] = field(default_factory=list)
    minimize_evaluations: int = 0
    artifact_path: Optional[str] = None
    replay_verified: bool = False

    @property
    def clean(self) -> bool:
        return not self.failure_found


class SoakHarness:
    """Seeded chaos soak: randomized trials, minimize-on-failure."""

    def __init__(
        self,
        seed: int = 0,
        trials: int = 20,
        budget_s: float = 120.0,
        scale: str = "tiny",
        num_hosts: int = 4,
        workloads: Sequence[str] = ("pr", "ycsb"),
        schemes: Sequence[str] = ("pipm", "memtis"),
        sabotage_rate: float = 0.0,
        crash_rate: float = 0.0,
        watchdog_period_ns: float = 20_000.0,
        minimize_budget: int = 32,
        artifact_dir: Union[str, Path] = "soak-artifacts",
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        WorkloadScale.named(scale)  # rejects an unknown name up front
        if not 0.0 <= sabotage_rate <= 1.0:
            raise ValueError("sabotage_rate must be in [0, 1]")
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError("crash_rate must be in [0, 1]")
        self.seed = seed
        self.trials = trials
        self.budget_s = budget_s
        self.scale = scale
        self.num_hosts = num_hosts
        self.workloads = list(workloads)
        self.schemes = list(schemes)
        self.sabotage_rate = sabotage_rate
        self.crash_rate = crash_rate
        self.watchdog_period_ns = watchdog_period_ns
        self.minimize_budget = minimize_budget
        self.artifact_dir = Path(artifact_dir)

    # ------------------------------------------------------------------
    def draw_trial(self, rng: random.Random, index: int) -> SoakTrial:
        """One randomized trial; every draw comes from ``rng``."""
        workload = rng.choice(self.workloads)
        scheme = rng.choice(self.schemes)
        clauses = draw_clauses(
            rng, sabotage_rate=self.sabotage_rate, crash_rate=self.crash_rate
        )
        return SoakTrial(
            seed=rng.randrange(1 << 30),
            workload=workload,
            scheme=scheme,
            scale_name=self.scale,
            num_hosts=self.num_hosts,
            clauses=tuple(clauses),
            watchdog_period_ns=self.watchdog_period_ns,
        )

    def run(
        self, progress: Optional[Callable[[str], None]] = None
    ) -> SoakReport:
        """Run trials until one fails, the count runs out, or the budget."""
        say = progress or (lambda _line: None)
        rng = random.Random(self.seed)
        report = SoakReport()
        started = perf_counter()
        for index in range(self.trials):
            if (
                index > 0
                and self.budget_s > 0
                and perf_counter() - started >= self.budget_s
            ):
                say(f"  budget of {self.budget_s:g}s exhausted after "
                    f"{index} trial(s)")
                break
            trial = self.draw_trial(rng, index)
            t0 = perf_counter()
            signature = run_trial(trial.spec())
            elapsed = perf_counter() - t0
            report.trials_run = index + 1
            if signature is None:
                say(f"  [ok  ] #{index:<3} {trial.describe():<72} "
                    f"{elapsed:6.2f}s")
                continue
            say(f"  [FAIL] #{index:<3} {trial.describe()}")
            say(f"         {signature.exc_type}: {signature.message[:100]}")
            self._investigate(report, trial, index, signature, say)
            break
        report.wall_s = perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _investigate(
        self,
        report: SoakReport,
        trial: SoakTrial,
        index: int,
        signature: FailureSignature,
        say,
    ) -> None:
        """Confirm, minimize, emit, and replay-verify one failure."""
        report.failure_found = True
        report.trial_index = index
        report.signature = signature
        report.original_clause_count = len(trial.clauses)
        confirm = run_trial(trial.spec())
        report.deterministic = signature.matches(confirm)
        if not report.deterministic:
            say("  [warn] failure did not reproduce on the confirm re-run; "
                "emitting the unminimized schedule")
            report.minimal_clauses = list(trial.clauses)
        else:
            evaluated = 0

            def still_fails(clauses: List[FaultClause]) -> bool:
                return signature.matches(run_trial(trial.spec(clauses)))

            minimal, evaluated = ddmin(
                list(trial.clauses), still_fails, budget=self.minimize_budget
            )
            report.minimal_clauses = minimal
            report.minimize_evaluations = evaluated
            say(f"  minimized {len(trial.clauses)} clause(s) -> "
                f"{len(minimal)} in {evaluated} evaluation(s)")
        path = self._emit_artifact(report, trial)
        report.artifact_path = str(path)
        say(f"  reproducer written to {path}")
        reproduced, _actual = replay_artifact(path)
        report.replay_verified = reproduced
        say(f"  replay verification: "
            f"{'reproduced' if reproduced else 'DID NOT reproduce'}")

    def _emit_artifact(self, report: SoakReport, trial: SoakTrial) -> Path:
        spec = trial.spec(report.minimal_clauses)
        payload = {
            "v": ARTIFACT_VERSION,
            "kind": "soak-reproducer",
            "soak_seed": self.seed,
            "trial_index": report.trial_index,
            "trial": {
                "seed": trial.seed,
                "workload": trial.workload,
                "scheme": trial.scheme,
                "scale": trial.scale_name,
                "num_hosts": trial.num_hosts,
                "watchdog_period_ns": trial.watchdog_period_ns,
            },
            "original_clauses": [c.to_dict() for c in trial.clauses],
            "clauses": [c.to_dict() for c in report.minimal_clauses],
            "deterministic": report.deterministic,
            "minimize_evaluations": report.minimize_evaluations,
            "failure": report.signature.to_dict(),
            "spec": spec.to_dict(),
        }
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        path = self.artifact_dir / (
            f"repro-seed{self.seed}-trial{report.trial_index}.json"
        )
        atomic_write_json(path, payload)
        return path


# ----------------------------------------------------------------------
def replay_artifact(
    path: Union[str, Path]
) -> Tuple[bool, Optional[FailureSignature]]:
    """Re-execute a reproducer artifact deterministically.

    Rebuilds the embedded :class:`ExperimentSpec` (no RNG re-draws — the
    artifact *is* the schedule), runs it uncached, and compares the
    failure signature against the recorded one.  Returns
    ``(reproduced, actual_signature)``.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != "soak-reproducer":
        raise ValueError(f"{path} is not a soak reproducer artifact")
    version = payload.get("v")
    if version != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact format v{version} is not supported "
            f"(this build speaks v{ARTIFACT_VERSION})"
        )
    expected = FailureSignature.from_dict(payload["failure"])
    spec = ExperimentSpec.from_dict(payload["spec"])
    actual = run_trial(spec)
    return expected.matches(actual), actual
