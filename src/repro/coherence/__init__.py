"""Coherence protocols: baseline CXL-DSM MESI and PIPM coherence.

Pure, functional *protocol models* (:mod:`base_protocol`,
:mod:`pipm_protocol`) — small transition systems over one cache line
shared by N hosts — and the explicit-state model checker (:mod:`checker`)
that explores them to verify SWMR, data-value integrity, and the absence
of stuck states (the paper's Murphi verification, Section 5.1.4).  The
model classes are the only statement of the transitions and the checker
is the only protocol oracle.  :mod:`states` holds ``CacheState``, the
state vocabulary (its docstring keeps Fig. 9's encoding table).  The
timing simulator does not run these models; the fault watchdog reuses
only the checker's ``Violation`` record.
"""

from .states import CacheState
from .base_protocol import BaseCxlDsmModel
from .pipm_protocol import PipmModel
from .checker import CheckResult, ModelChecker
from .litmus import LitmusRunner, verify_sequential_consistency

__all__ = [
    "LitmusRunner",
    "verify_sequential_consistency",
    "CacheState",
    "BaseCxlDsmModel",
    "PipmModel",
    "ModelChecker",
    "CheckResult",
]
