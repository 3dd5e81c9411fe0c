"""ASCII charts: sparklines and task Gantt charts."""

from __future__ import annotations

import numpy as np

from repro.sim.trace import JobTrace

_LEVELS = " .:-=+*#%@"

#: Width of the label column of :func:`labeled_sparklines`.
LABEL_WIDTH = 14
#: Columns of a :func:`gantt` chart's time axis, and the most node rows it
#: draws.
GANTT_WIDTH = 72
GANTT_MAX_ROWS = 40


def sparkline(values: list[float], width: int = 60) -> str:
    """One-line intensity chart, values scaled to their own maximum."""
    if not values:
        return ""
    arr = np.asarray(values, dtype=float)
    peak = arr.max()
    if peak <= 0:
        return " " * min(width, len(values))
    if len(arr) > width:
        # Average into `width` buckets to preserve the overall shape.
        edges = np.linspace(0, len(arr), width + 1).astype(int)
        arr = np.array([arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a])
    idx = np.minimum(len(_LEVELS) - 1, (arr / peak * (len(_LEVELS) - 1)).astype(int))
    return "".join(_LEVELS[i] for i in idx)


def labeled_sparklines(rows: list[tuple[str, list[float]]], width: int = 48) -> str:
    """Aligned block of ``label  min..max |sparkline|`` lines.

    Series are scaled independently (each to its own maximum), which is the
    right view for per-node timelines where the units differ per row.
    """
    lines = []
    for label, values in rows:
        if not values:
            lines.append(f"  {label:<{LABEL_WIDTH}} (no data)")
            continue
        lo, hi = min(values), max(values)
        spark = sparkline(values, width)
        lines.append(f"  {label:<{LABEL_WIDTH}}{lo:>9.2f}..{hi:<9.2f} |{spark}|")
    return "\n".join(lines)


def gantt(trace: JobTrace) -> str:
    """Per-node task timeline: map tasks as ``m``/``M`` (small/large),
    reduces as ``r``, killed attempts as ``x``."""
    records = [r for r in trace.records if r.runtime > 0]
    if not records:
        return "(no tasks)"
    t0 = min(r.start for r in records)
    t1 = max(r.end for r in records)
    span = max(t1 - t0, 1e-9)
    width = GANTT_WIDTH
    median_mb = float(np.median([r.size_mb for r in records if r.kind == "map"] or [1.0]))
    by_node: dict[str, list] = {}
    for r in records:
        by_node.setdefault(r.node, []).append(r)
    lines = [f"t = {t0:.0f}s {'-' * (width - 20)} {t1:.0f}s"]
    for node in sorted(by_node)[:GANTT_MAX_ROWS]:
        row = [" "] * width
        for r in by_node[node]:
            a = int((r.start - t0) / span * (width - 1))
            b = max(a + 1, int((r.end - t0) / span * (width - 1)))
            if r.killed:
                ch = "x"
            elif r.kind == "reduce":
                ch = "r"
            else:
                ch = "M" if r.size_mb > median_mb else "m"
            for i in range(a, min(b, width)):
                row[i] = ch
        lines.append(f"{node:>12} |{''.join(row)}|")
    return "\n".join(lines)
