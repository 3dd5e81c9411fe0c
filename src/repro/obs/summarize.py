"""Render a recorded JSONL trace as a per-node sizing timeline.

This is the offline companion of the Fig. 7 analysis: from a trace produced
with ``repro run --trace-out FILE``, rebuild — per node and in dispatch
order — the elastic task sizes handed out (``task_bind``), the vertical
size unit s_i (``sizing``), per-wave productivity, and the SpeedMonitor's
smoothed IPS estimate (``ips``), and draw them as aligned sparklines.

A ``repro serve`` trace holds several jobs, but its sizing events carry no
job field, so its per-node series combine every job's events.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import defaultdict
from pathlib import Path

from repro.obs.trace import is_number, read_trace
from repro.viz.ascii import labeled_sparklines


def _first(events: list[dict], ev: str) -> dict | None:
    return next((e for e in events if e["ev"] == ev), None)


def _field(e: dict, name: str, kind: type = float):
    """``e[name]`` as a ``kind`` (from a JSON number for ``float``); raises
    ``ValueError`` naming the event and the field if it is missing or of
    another type."""
    where = f"a {e['ev']} event at t={e['t']}"
    if name not in e:
        raise ValueError(f"{where} lacks the '{name}' field")
    value = e[name]
    if is_number(value) if kind is float else isinstance(value, kind):
        return kind(value)
    raise ValueError(f"{where} has a wrong-typed '{name}' field: {json.dumps(value)}")


def node_series(events: list[dict]) -> dict[str, dict[str, list[float]]]:
    """Per-node time series extracted from the event stream.

    Keys per node: ``task_bus`` (dispatched task sizes in BUs), ``s_i_mb``
    (size unit after each vertical step, seeded with the starting value),
    ``productivity`` (per completed map), ``ips`` (smoothed estimate per
    sample), plus ``decisions`` (tally of Algorithm 1 outcomes).  Raises
    ``ValueError`` naming the event and the field when an event lacks a
    field its series needs or holds one of the wrong type.
    """
    series: dict[str, dict] = defaultdict(
        lambda: {
            "task_bus": [],
            "s_i_mb": [],
            "productivity": [],
            "ips": [],
            "decisions": TallyCounter(),
        }
    )
    for e in events:
        ev = e["ev"]
        if ev == "task_bind":
            s = series[_field(e, "node", str)]
            s["task_bus"].append(_field(e, "n_bus"))
            if not s["s_i_mb"]:
                s["s_i_mb"].append(_field(e, "s_i_mb"))
        elif ev == "sizing":
            s = series[_field(e, "node", str)]
            if not s["s_i_mb"]:
                s["s_i_mb"].append(_field(e, "s_i_before"))
            s["s_i_mb"].append(_field(e, "s_i_after"))
            s["decisions"][_field(e, "decision", str)] += 1
        elif ev == "map_complete":
            series[_field(e, "node", str)]["productivity"].append(
                _field(e, "productivity")
            )
        elif ev == "ips":
            series[_field(e, "node", str)]["ips"].append(_field(e, "smoothed"))
    return dict(series)


def summarize_trace(source: str | Path | list[dict], width: int = 48) -> str:
    """Human-readable per-node sizing timeline for a trace file or events."""
    events = source if isinstance(source, list) else read_trace(source)
    if not events:
        return "(empty trace)"
    lines = []
    meta = _first(events, "run_meta")
    if meta is not None:
        lines.append(
            f"run: engine={meta.get('engine')} cluster={meta.get('cluster')} "
            f"job={meta.get('job')} seed={meta.get('seed')}"
        )
    for end in (e for e in events if e["ev"] == "job_end"):
        jct = _field(end, "jct") if "jct" in end else float("nan")
        lines.append(
            f"job_end: t={end['t']:.1f}s jct={jct:.1f}s "
            f"maps={end.get('maps')} reduces={end.get('reduces')}"
        )
    lines.append(f"{len(events)} events")

    per_node = node_series(events)
    if not per_node:
        lines.append("(no per-node sizing events — was the engine flexmap?)")
        return "\n".join(lines)

    lines.append("-- per-node sizing timeline --")
    jobs = sum(1 for e in events if e["ev"] == "job_start")
    if jobs > 1:
        lines.append(f"(each node's series combine the events of all {jobs} jobs)")
    for node in sorted(per_node):
        s = per_node[node]
        decisions = ", ".join(
            f"{k} x{v}" for k, v in sorted(s["decisions"].items())
        ) or "none"
        s_lo = s["s_i_mb"][0] if s["s_i_mb"] else float("nan")
        s_hi = s["s_i_mb"][-1] if s["s_i_mb"] else float("nan")
        lines.append(
            f"{node}: tasks={len(s['task_bus'])} "
            f"s_i {s_lo:.0f}->{s_hi:.0f} MB  decisions: {decisions}"
        )
        lines.append(
            labeled_sparklines(
                [
                    ("task BUs", s["task_bus"]),
                    ("s_i MB", s["s_i_mb"]),
                    ("productivity", s["productivity"]),
                    ("ips (smooth)", s["ips"]),
                ],
                width=width,
            )
        )
    return "\n".join(lines)
