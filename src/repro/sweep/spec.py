"""Content-addressed experiment specs.

An :class:`ExperimentSpec` is the *complete* identity of one simulation
run: workload name, scheme name plus its constructor kwargs, workload
scale, the full (nested) :class:`~repro.config.SystemConfig` — including
any fault-injection plan — and the extra keyword arguments forwarded to
:class:`~repro.sim.system.MultiHostSystem`.  Its :meth:`key` is a SHA-256
over a canonical JSON rendering of all of that, so two runs share a cache
entry **iff** nothing that can influence the simulation differs.

This replaces the old ``workload|scheme|scale|tag`` string key, which
ignored the config entirely: an ablation that forgot a unique ``tag``
silently read results computed under a different configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import SystemConfig
from ..policies import SCHEME_CLASSES
from ..workloads.trace import WorkloadScale

#: Bump when the spec serialization (and therefore every key) changes.
SPEC_VERSION = 1


def _jsonify(obj: Any) -> Any:
    """JSON fallback for the handful of non-JSON types specs may carry."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(
        f"{type(obj).__name__} is not spec-serializable; experiment "
        f"parameters must be plain data (numbers, strings, tuples, dicts)"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable floats."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_jsonify
    )


def content_key(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified simulation run."""

    workload: str
    scheme: str
    config: SystemConfig
    scale: WorkloadScale
    scheme_kwargs: Dict[str, Any] = field(default_factory=dict)
    system_kwargs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        workload: str,
        scheme: str,
        config: Optional[SystemConfig] = None,
        scale: Optional[WorkloadScale] = None,
        scheme_kwargs: Optional[Dict[str, Any]] = None,
        system_kwargs: Optional[Dict[str, Any]] = None,
    ) -> "ExperimentSpec":
        """Normalize defaults and validate eagerly.

        ``config=None`` and ``scale=None`` resolve to the same defaults
        :func:`repro.sim.harness.run_experiment` uses, so a spec built
        from default arguments hashes identically to one built from the
        explicit defaults.
        """
        if scheme not in SCHEME_CLASSES:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose from "
                f"{sorted(SCHEME_CLASSES)}"
            )
        spec = cls(
            workload=workload,
            scheme=scheme,
            config=config if config is not None else SystemConfig.scaled(),
            scale=scale if scale is not None else WorkloadScale.default(),
            scheme_kwargs=dict(scheme_kwargs or {}),
            system_kwargs=dict(system_kwargs or {}),
        )
        # Fail on unserializable kwargs at build time, not at cache time.
        canonical_json(spec.to_dict())
        return spec

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        The inverse serialisation serve's spool files use:
        ``ExperimentSpec.from_dict(s.to_dict()).key() == s.key()`` —
        canonical JSON renders tuples and lists identically, so a spec
        that went through JSON hashes to the same cache entry.
        """
        version = data.get("v", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"spec format v{version} is not supported "
                f"(this build speaks v{SPEC_VERSION})"
            )
        return cls.build(
            workload=data["workload"],
            scheme=data["scheme"],
            config=SystemConfig.from_dict(data["config"]),
            scale=WorkloadScale(**data["scale"]),
            scheme_kwargs=data.get("scheme_kwargs") or {},
            system_kwargs=data.get("system_kwargs") or {},
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The canonical (JSON-safe) rendering every key is derived from."""
        return {
            "v": SPEC_VERSION,
            "workload": self.workload,
            "scheme": self.scheme,
            "scheme_kwargs": self.scheme_kwargs,
            "scale": dataclasses.asdict(self.scale),
            "config": dataclasses.asdict(self.config),
            "system_kwargs": self.system_kwargs,
        }

    def key(self) -> str:
        """Content hash naming this spec's result cache entry."""
        return content_key(self.to_dict())

    def trace_dict(self) -> Dict[str, Any]:
        """The subset of the spec that determines the generated trace."""
        return {
            "v": SPEC_VERSION,
            "workload": self.workload,
            "num_hosts": self.config.num_hosts,
            "cores_per_host": self.config.cores_per_host,
            "scale": dataclasses.asdict(self.scale),
        }

    def trace_key(self) -> str:
        """Content hash naming the shared trace cache entry."""
        return content_key(self.trace_dict())

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        extras = []
        if self.scheme_kwargs:
            extras.append(
                ",".join(f"{k}={v}" for k, v in sorted(self.scheme_kwargs.items()))
            )
        if self.system_kwargs:
            extras.append(
                ",".join(f"{k}={v}" for k, v in sorted(self.system_kwargs.items()))
            )
        if self.config.faults is not None:
            extras.append("faults")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return f"{self.workload}/{self.scheme}{suffix}"
