"""Plain-text table/series formatting for the benchmark harnesses.

Every bench prints the same rows/series its paper figure shows; these
helpers keep the formatting consistent and the aggregation (arithmetic
mean vs geometric mean) explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence


def mean(values: Iterable[float]) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def geomean(values: Iterable[float]) -> float:
    items = [v for v in values if v > 0]
    if not items:
        return 0.0
    return math.exp(sum(math.log(v) for v in items) / len(items))


@dataclass
class Table:
    """A simple column-aligned text table."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} "
                f"columns"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> str:
    table = Table(title, list(columns))
    for row in rows:
        table.add_row(*row)
    return table.render()


#: Human-readable labels for the ``fault_*``/``watchdog_*`` result stats.
_FAULT_LABELS = (
    ("fault_injected_errors", "injected transfer errors"),
    ("fault_link_retries", "link retries"),
    ("fault_link_giveups", "link give-ups"),
    ("fault_migration_aborts", "migration aborts"),
    ("fault_migration_timeouts", "  of which timeouts"),
    ("fault_rollbacks", "remap rollbacks"),
    ("fault_degraded_skips", "degraded-link skips"),
    ("fault_host_stall_ns", "host stall time (ns)"),
    ("fault_poison_recoveries", "poison recoveries"),
    ("fault_recovery_ns", "recovery time (ns)"),
    ("fault_host_crashes", "host crashes"),
    ("fault_host_rejoins", "host rejoins"),
    ("fault_crash_lines_reclaimed", "  directory lines reclaimed"),
    ("fault_crash_pages_reclaimed", "  remapped pages reclaimed"),
    ("fault_crash_txns_aborted", "  in-flight txns aborted"),
    ("fault_crash_lost_updates", "  lost updates (M, no writeback)"),
    ("fault_crash_dropped_accesses", "  accesses dropped (dead host)"),
    ("fault_crash_recovery_ns", "  crash recovery time (ns)"),
    ("fault_crash_down_ns", "  host-down time (ns)"),
    ("fault_governor_skips", "governor-suppressed promotions"),
    ("watchdog_violations", "watchdog violations"),
)


def format_fault_report(stats: Dict[str, float]) -> str:
    """Render a run's fault/recovery counters; empty string if none fired."""
    rows = [
        (label, f"{stats[key]:g}")
        for key, label in _FAULT_LABELS
        if key in stats
    ]
    if not rows:
        return ""
    return format_table(
        "Fault injection & recovery", ["event", "count"], rows
    )


def format_series(
    title: str,
    series: Dict[str, Dict[str, float]],
    fmt: str = "{:.3f}",
    mean_row: Optional[str] = "mean",
) -> str:
    """Render ``{row_label: {col_label: value}}`` as an aligned table."""
    if not series:
        return f"{title}\n(empty)"
    columns = list(next(iter(series.values())).keys())
    table = Table(title, ["workload"] + columns)
    for label, values in series.items():
        table.add_row(label, *[fmt.format(values.get(c, 0.0)) for c in columns])
    if mean_row:
        table.add_row(
            mean_row,
            *[
                fmt.format(geomean(vals[c] for vals in series.values()))
                for c in columns
            ],
        )
    return table.render()
