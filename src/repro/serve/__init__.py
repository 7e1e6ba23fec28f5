"""Always-on experiment service: a spool front end to the sweep runner.

``python -m repro serve run`` keeps a daemon alive that runs the spec
files spooled into a watched directory through
:class:`~repro.sweep.runner.SweepRunner`, deletes each file once its
spec is done and parks failures in ``rejected/``.  The spool and the
result store hold the whole pending set, and the sweep journal records
every attempt, so a ``kill -9`` + restart resumes without re-running
completed work.  See DESIGN.md ("Experiment service") for the lifecycle
and README.md for the ops runbook.
"""

from .service import ExperimentService, submit_spec
from .status import (
    STATUS_NAME,
    ServiceStatus,
    format_status,
    pid_alive,
    read_status,
    write_status,
)

__all__ = [
    "ExperimentService",
    "submit_spec",
    "STATUS_NAME",
    "ServiceStatus",
    "format_status",
    "pid_alive",
    "read_status",
    "write_status",
]
