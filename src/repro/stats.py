"""Lightweight statistics registry used by every simulator component.

Components register named counters and accumulators on a shared
:class:`StatRegistry`; the harness snapshots the registry into a plain
dictionary at the end of a run.  Counters are plain attributes on purpose —
the simulator hot loop bumps them millions of times, so there is no
indirection beyond a dict lookup.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """A preresolved accumulator cell for one registry key.

    The simulator hot loop (DRAM channels, CXL links) bumps the same few
    statistics millions of times per run.  A Counter is handed out once
    by :meth:`StatRegistry.counter` and then bumped as
    ``cell.value += x``, with no key concatenation or dict update per
    event; the registry reads the live cell at snapshot time, so there is
    no flush step and mid-run reads stay exact.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class StatRegistry:
    """A hierarchical bag of numeric statistics.

    Keys are dotted paths (``"host0.llc.misses"``).  Components take a
    preresolved :class:`Counter` per key from :meth:`counter` (usually
    through a :class:`ScopedStats` view) and bump it directly;
    :meth:`snapshot` reads every live cell.
    """

    def __init__(self) -> None:
        self._values: Dict[str, Counter] = {}

    def counter(self, key: str) -> Counter:
        """The live accumulator cell for ``key`` (created at 0 if new)."""
        cell = self._values.get(key)
        if cell is None:
            cell = self._values[key] = Counter()
        return cell

    def get(self, key: str, default: float = 0.0) -> float:
        cell = self._values.get(key)
        return cell.value if cell is not None else default

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self, prefix)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of every recorded statistic."""
        return {key: cell.value for key, cell in self._values.items()}

    def clear_prefix(self, prefix: str) -> int:
        """Drop every statistic under ``prefix``; returns how many."""
        doomed = [key for key in self._values if key.startswith(prefix)]
        for key in doomed:
            del self._values[key]
        return len(doomed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatRegistry({len(self._values)} keys)"


class ScopedStats:
    """A view of a :class:`StatRegistry` under a fixed dotted prefix."""

    def __init__(self, registry: StatRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def counter(self, key: str) -> Counter:
        """Preresolved accumulator cell for ``prefix + key`` (hot paths)."""
        return self._registry.counter(self._prefix + key)

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self._registry, self._prefix + prefix)

    def clear(self) -> int:
        """Drop every statistic recorded under this scope's prefix."""
        return self._registry.clear_prefix(self._prefix)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a 0 denominator mapping to 0."""
    return numerator / denominator if denominator else 0.0
