"""Liveness and health reporting for the experiment service.

The daemon publishes a ``status.json`` under its root on every pass
(atomic temp-file + ``os.replace``, so readers never see a torn file);
``python -m repro serve status`` folds in a PID liveness probe so an
operator can tell "healthy", "draining", "exited cleanly", and "died
without drain" apart at a glance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..sweep.store import atomic_write_json

STATUS_NAME = "status.json"

#: Service lifecycle states published in status.json.
SERVICE_STATES = ("running", "draining", "drained")


@dataclass
class ServiceStatus:
    """One published health snapshot."""

    pid: int
    state: str  # one of SERVICE_STATES
    tick: int   # loop passes this start (liveness counter)
    spool_backlog: int = 0  # spool files not yet done
    in_flight: int = 0  # specs in the running batch
    parked: int = 0  # files in rejected/
    totals: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": self.pid, "state": self.state, "tick": self.tick,
            "spool_backlog": self.spool_backlog,
            "in_flight": self.in_flight, "parked": self.parked,
            "totals": self.totals,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceStatus":
        return cls(
            pid=int(data.get("pid", 0)),
            state=str(data.get("state", "running")),
            tick=int(data.get("tick", 0)),
            spool_backlog=int(data.get("spool_backlog", 0)),
            in_flight=int(data.get("in_flight", 0)),
            parked=int(data.get("parked", 0)),
            totals={
                str(k): int(v)
                for k, v in (data.get("totals") or {}).items()
            },
        )


def status_path(root: Union[str, Path]) -> Path:
    return Path(root) / STATUS_NAME


def write_status(root: Union[str, Path], status: ServiceStatus) -> None:
    atomic_write_json(status_path(root), status.to_dict())


def read_status(root: Union[str, Path]) -> Optional[ServiceStatus]:
    try:
        data = json.loads(status_path(root).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return ServiceStatus.from_dict(data)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for the publishing process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def format_status(status: ServiceStatus, alive: Optional[bool]) -> str:
    """Human-readable status block for the CLI."""
    if alive is None:
        liveness = "unknown"
    elif alive:
        liveness = "alive"
    elif status.state == "drained":
        liveness = "exited after drain"
    else:
        liveness = "DEAD (no drain recorded; restart to resume)"
    lines = [
        f"service      : {status.state} (pid {status.pid}: {liveness})",
        f"pass         : {status.tick}",
        f"spool        : {status.spool_backlog} spooled, "
        f"{status.in_flight} in flight, {status.parked} parked",
    ]
    if status.totals:
        totals = ", ".join(
            f"{k}={v}" for k, v in sorted(status.totals.items())
        )
        lines.append(f"totals       : {totals}")
    return "\n".join(lines)
