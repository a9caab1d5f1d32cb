"""Experiment-report formatting: the paper's tables and figure series.

These helpers render results in the same shape the paper presents them,
so EXPERIMENTS.md and the benchmark harness can print paper-vs-measured
side by side.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.session import TuningSession
from repro.lsm.options import format_size


def format_grid_table(
    title: str,
    column_labels: Sequence[str],
    default_row: Sequence[float],
    tuned_row: Sequence[float],
    *,
    unit: str = "ops/sec",
    precision: int = 0,
) -> str:
    """Tables 1-2 shape: hardware columns x {Default, Tuned} rows."""
    if not (len(column_labels) == len(default_row) == len(tuned_row)):
        raise ValueError("column/row length mismatch")
    width = max(12, max(len(c) for c in column_labels) + 2)
    header = "Config".ljust(10) + "".join(c.rjust(width) for c in column_labels)
    def row(name: str, values: Sequence[float]) -> str:
        return name.ljust(10) + "".join(
            f"{v:.{precision}f}".rjust(width) for v in values
        )
    return "\n".join(
        [f"{title} ({unit})", header, row("Default", default_row),
         row("Tuned", tuned_row)]
    )


def format_iteration_series(
    title: str,
    sessions: Mapping[str, TuningSession],
    *,
    series: str = "throughput",
) -> str:
    """Figures 3/4 shape: per-iteration values, one column per workload."""
    pick = {
        "throughput": lambda s: s.throughput_series(),
        "p99_write": lambda s: s.p99_write_series(),
        "p99_read": lambda s: s.p99_read_series(),
    }
    if series not in pick:
        raise ValueError(f"unknown series {series!r}")
    data = {name: pick[series](s) for name, s in sessions.items()}
    names = list(data)
    iterations = max(len(v) for v in data.values())
    width = max(14, max(len(n) for n in names) + 2)
    lines = [title, "Iter".ljust(6) + "".join(n.rjust(width) for n in names)]
    for i in range(iterations):
        cells = []
        for name in names:
            values = data[name]
            value = values[i] if i < len(values) else None
            cells.append("-".rjust(width) if value is None
                         else f"{value:.1f}".rjust(width))
        lines.append(f"{i}".ljust(6) + "".join(cells))
    return "\n".join(lines)


def format_option_trajectory(session: TuningSession) -> str:
    """Table 5 shape: option x iteration matrix of changed values."""
    trajectory = session.option_trajectory()
    if not trajectory:
        return "(no options were changed)"
    iterations = sorted(
        {it for changes in trajectory.values() for it, _ in changes}
    )
    name_width = max(len(n) for n in trajectory) + 2
    header = "Parameter".ljust(name_width) + "Default".rjust(14) + "".join(
        f"It{i}".rjust(12) for i in iterations
    )
    lines = [header]
    rows = sorted(
        trajectory.items(), key=lambda kv: -len(kv[1])
    )
    baseline = session.baseline.options
    for name, changes in rows:
        by_iter = dict(changes)
        default = _short(baseline.get(name))
        cells = "".join(
            _short(by_iter[i]).rjust(12) if i in by_iter else "".rjust(12)
            for i in iterations
        )
        lines.append(name.ljust(name_width) + default.rjust(14) + cells)
    return "\n".join(lines)


def _short(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int) and abs(value) >= 1024:
        return format_size(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def improvement_summary(sessions: Mapping[str, TuningSession]) -> str:
    """Headline factors: who improved by how much (the abstract's claim)."""
    lines = ["Improvement over out-of-box configuration:"]
    for name, session in sessions.items():
        base = session.baseline.metrics
        best = session.best.metrics
        bits = [f"throughput {session.improvement_factor():.2f}x"]
        for label, old, new in (
            ("p99 write", base.p99_write_us, best.p99_write_us),
            ("p99 read", base.p99_read_us, best.p99_read_us),
        ):
            if old and new:
                bits.append(f"{label} {old / new:.2f}x lower")
        lines.append(f"  {name}: " + ", ".join(bits))
    return "\n".join(lines)
