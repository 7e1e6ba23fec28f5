"""Dataflow layer for simcheck: CFGs, reaching definitions, taint.

The PR-3 rules are purely syntactic — they look at one AST node at a
time.  This subpackage adds the second analyzer layer: per-function
control-flow graphs (:mod:`cfg`), a reaching-definitions fixed point
with def-use chains (:mod:`reaching`), and a small provenance/taint
framework (:mod:`taint`) that propagates client-defined facts along
those chains.  The FLOW rules (:mod:`repro.simcheck.rules.flow_rules`)
are the first clients; the fast-lane conformance and table-drift passes
anchor on the same machinery where inference suffices.
"""

from .cfg import CFG, Block, build_cfg, iter_function_units
from .reaching import Definition, ReachingDefinitions
from .taint import TaintAnalysis

__all__ = [
    "CFG",
    "Block",
    "build_cfg",
    "iter_function_units",
    "Definition",
    "ReachingDefinitions",
    "TaintAnalysis",
]
