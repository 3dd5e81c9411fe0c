"""Typed, sim-timestamped trace events, serialized as JSONL.

Every event is one JSON object per line with two common fields —

* ``ev`` — the event type (string, see below);
* ``t``  — simulation time in seconds;

plus event-specific fields.  The instrumented stack emits:

==================  =========================================================
``run_meta``        engine, cluster, job, seed (once, at run start)
``job_start``       job, engine
``heartbeat``       round, running_maps, running_reduces
``map_launch``      task, node, size_mb, n_bus, wave, speculative
``map_complete``    task, node, runtime, size_mb, productivity
``reduce_launch``   task, node, size_mb, speculative
``reduce_complete`` task, node, runtime
``speculate``       task, node (a backup copy was dispatched)
``task_bind``       FlexMap LTB bind: task, node, n_bus, alg1_bus, s_i_mb,
                    rel_speed, local_mb, remote_mb
``sizing``          FlexMap Algorithm 1 vertical step: node, wave,
                    productivity, s_i_before, s_i_after, decision
``ips``             SpeedMonitor sample: node, source (round|completion),
                    round, sample, smoothed
``remote_fallback`` stock Hadoop delay-scheduling gave up: node, waited_s
``mitigate``        SkewTune repartition: task, node, remaining_mb, chunks
``node_failure``    node crashed: node, running_maps, running_reduces
``map_requeue``     lost input re-enqueued: task, n_bus
``job_end``         jct, maps, reduces
==================  =========================================================

Emitters share one interface, :meth:`TraceEmitter.emit`.  The base class is
a no-op, so instrumented code can either skip the call entirely
(``if self.obs: ...``) or call through at negligible cost.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO


class TraceEmitter:
    """No-op emitter; also the interface real emitters implement."""

    def emit(self, ev: str, t: float, **fields) -> None:
        """Record one typed event at simulation time ``t``."""

    def close(self) -> None:
        """Flush and release any underlying resources.  Idempotent."""


#: Shared no-op singleton for disabled-by-default call sites.
NULL_EMITTER = TraceEmitter()


class MemoryTraceEmitter(TraceEmitter):
    """Keeps events as dicts in memory — tests and in-process summaries."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, ev: str, t: float, **fields) -> None:
        self.events.append({"ev": ev, "t": t, **fields})


class JsonlTraceEmitter(TraceEmitter):
    """Streams events to a JSONL file (or any writable text handle)."""

    def __init__(self, path_or_file: str | Path | IO[str]) -> None:
        if hasattr(path_or_file, "write"):
            self._file: IO[str] = path_or_file  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True

    def emit(self, ev: str, t: float, **fields) -> None:
        record = {"ev": ev, "t": round(t, 6), **fields}
        self._file.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._owns_file:
            self._file.flush()


def read_trace(path: str | Path) -> list[dict]:
    """Load a JSONL trace back into a list of event dicts.

    Raises ``ValueError`` for a line that is not an event: a JSON object
    with an ``ev`` field and a numeric ``t`` field.
    """
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                event = json.loads(line)
                if not (isinstance(event, dict) and "ev" in event and "t" in event):
                    raise ValueError(f"line {lineno} is not a trace event")
                if not is_number(event["t"]):
                    raise ValueError(f"line {lineno}'s t is not a number")
                events.append(event)
    return events


def is_number(value) -> bool:
    """Whether a decoded JSON value is a number (``true``/``false`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
