"""Baseline files: grandfather existing findings, fail only on regressions.

The baseline is a committed JSON file mapping finding fingerprints (see
:meth:`repro.simcheck.findings.Finding.fingerprint`) to allowed counts.
``python -m repro lint --write-baseline`` snapshots the current tree;
subsequent runs subtract the baseline, so CI trips only when a *new*
finding appears.  Counts matter: two identical offending lines in one
file share a fingerprint, and fixing one of them must not hide the other.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from .findings import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE = "simcheck-baseline.json"

#: Drift findings assert that the transition tables agree with the
#: handler code *right now* — grandfathering one would defeat the whole
#: point, so they can never enter the baseline.
UNBASELINEABLE_RULES = frozenset({"PROTO007"})


def baseline_eligible(finding: Finding) -> bool:
    """Whether a finding may be grandfathered (or written) at all."""
    return (
        finding.severity == "error"
        and finding.rule not in UNBASELINEABLE_RULES
    )


def load_baseline(path: str) -> Dict[str, int]:
    """Fingerprint -> allowed-count map from a baseline file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: unsupported baseline version {payload.get('version')!r}"
        )
    findings = payload.get("findings", {})
    if not isinstance(findings, dict):
        raise ValueError(f"{path}: 'findings' must be a mapping")
    return {str(k): int(v) for k, v in findings.items()}


def write_baseline(path: str, findings: List[Finding]) -> int:
    """Snapshot ``findings`` (errors only) as the new baseline."""
    counts: Dict[str, int] = {}
    for finding in findings:
        if not baseline_eligible(finding):
            continue
        key = finding.fingerprint()
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "version": BASELINE_VERSION,
        "comment": (
            "Grandfathered simcheck findings. Regenerate with "
            "`python -m repro lint --write-baseline`; shrink it by fixing "
            "findings, never grow it by hand."
        ),
        "findings": dict(sorted(counts.items())),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    os.replace(tmp, path)
    return len(counts)


def prune_baseline(path: str, root: str) -> Tuple[int, int]:
    """Drop fingerprints whose file no longer exists; rewrite in place.

    Returns ``(kept, dropped)`` entry counts.  Also sheds malformed
    fingerprints and entries for unbaselineable rules (hand-edits or
    leftovers from older tool versions) — none of those can ever be
    consumed by :func:`apply_baseline` again, so they are pure noise.
    """
    counts = load_baseline(path)
    kept: Dict[str, int] = {}
    dropped = 0
    for key, count in counts.items():
        parts = key.split("::")
        if len(parts) < 3:
            dropped += 1
            continue
        rule = parts[0]
        relpath = "::".join(parts[1:-1])
        if rule in UNBASELINEABLE_RULES:
            dropped += 1
            continue
        if not os.path.isfile(os.path.join(root, relpath)):
            dropped += 1
            continue
        kept[key] = count
    if dropped:
        payload = {
            "version": BASELINE_VERSION,
            "comment": (
                "Grandfathered simcheck findings. Regenerate with "
                "`python -m repro lint --write-baseline`; shrink it by "
                "fixing findings, never grow it by hand."
            ),
            "findings": dict(sorted(kept.items())),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(tmp, path)
    return len(kept), dropped


def apply_baseline(
    findings: List[Finding], baseline: Dict[str, int]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, grandfathered-count).

    Only ``error`` findings are baseline-eligible; notes always pass
    through (they never fail the run anyway).  Drift rules
    (:data:`UNBASELINEABLE_RULES`) are never matched against the
    baseline even if someone hand-edited an entry in.
    """
    budget = dict(baseline)
    fresh: List[Finding] = []
    grandfathered = 0
    for finding in findings:
        if baseline_eligible(finding):
            key = finding.fingerprint()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                grandfathered += 1
                continue
        fresh.append(finding)
    return fresh, grandfathered
