"""Fold cProfile function statistics into the simulator's layers.

A layer is a set of ``src/repro`` modules, named after the repository's
own packages.  Every function a profiled phase reaches is attributed to
the layer of the module that defines it:

* functions defined under ``src/repro`` go to the one layer whose module
  patterns match their file; a module that matches no pattern, or more
  than one, raises :class:`UnmappedModule` -- new simulator code can never
  drop silently out of the split;
* C functions (cProfile's ``~`` file) go to ``builtins``;
* Python code outside ``src/repro`` (the standard library, numpy's Python
  wrappers, import machinery, dataclass-generated ``<string>`` methods)
  goes to ``external``;
* the benchmark's own frames and the profiler's ``disable`` call are
  dropped: they are measurement, not program.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

#: Layer -> module patterns relative to ``src/repro`` (fnmatch syntax).
LAYER_MODULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("sim/engine.py", "sim/results.py")),
    ("system", ("sim/system.py",)),
    ("cache", ("cache/sa_cache.py", "cache/replacement.py")),
    ("directory", ("cache/directory.py",)),
    ("host", ("host/*",)),
    ("pipm", ("pipm/*",)),
    ("policies", ("policies/*",)),
    ("analysis", ("analysis/*",)),
    ("link", ("mem/cxl_link.py",)),
    ("fabric", ("mem/fabric.py",)),
    ("dram", ("mem/dram.py", "mem/controller.py")),
    ("faults", ("faults/*",)),
    ("workloads", ("workloads/*",)),
    ("support", ("stats.py", "units.py", "config.py", "mem/address.py")),
    ("builtins", ()),
    ("external", ()),
)

LAYERS: Tuple[str, ...] = tuple(name for name, _ in LAYER_MODULES)


class UnmappedModule(LookupError):
    """A profiled ``src/repro`` module maps to no layer, or to several."""


def layer_of_module(module: str) -> str:
    """The single layer owning ``module`` (a path relative to src/repro)."""
    owners = [
        layer
        for layer, patterns in LAYER_MODULES
        if any(fnmatch.fnmatchcase(module, pattern) for pattern in patterns)
    ]
    if len(owners) != 1:
        found = ", ".join(owners) if owners else "no layer"
        raise UnmappedModule(
            f"src/repro/{module} maps to {found}; give it exactly one layer "
            f"in specbench/layers.py LAYER_MODULES"
        )
    return owners[0]


@dataclass
class LayerTotals:
    """Calls and self seconds of one layer in one profiled phase."""

    calls: int = 0
    self_s: float = 0.0


class LayerFolder:
    """Attributes cProfile entries to layers for one source tree."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self._repro_prefix = os.path.join(os.path.abspath(repro_dir), "")
        self._bench_prefix = os.path.join(os.path.abspath(bench_dir), "")

    def module_of(self, filename: str) -> str | None:
        """``filename`` relative to src/repro, or None if outside it."""
        path = os.path.abspath(filename)
        if path.startswith(self._repro_prefix):
            return path[len(self._repro_prefix):].replace(os.sep, "/")
        return None

    def layer_of(self, filename: str, funcname: str) -> str | None:
        """The layer of one profiled function; None for dropped frames."""
        if filename == "~":
            return None if "_lsprof.Profiler" in funcname else "builtins"
        module = self.module_of(filename)
        if module is not None:
            return layer_of_module(module)
        if os.path.abspath(filename).startswith(self._bench_prefix):
            return None
        return "external"

    def fold(self, stats: Mapping) -> Dict[str, LayerTotals]:
        """Per-layer totals of a ``pstats.Stats(...).stats`` mapping."""
        totals = {layer: LayerTotals() for layer in LAYERS}
        for (filename, _line, funcname), entry in stats.items():
            layer = self.layer_of(filename, funcname)
            if layer is None:
                continue
            # entry = (primitive calls, calls, self time, cumulative, callers)
            totals[layer].calls += entry[1]
            totals[layer].self_s += entry[2]
        return totals
