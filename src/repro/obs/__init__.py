"""Structured observability: metrics + typed trace events.

An :class:`Observability` bundle is threaded (optionally) through the
simulator, the application masters, and the SpeedMonitor.  It is
disabled-by-default everywhere: components hold ``obs = None`` and guard
each instrumentation site with a single ``is not None`` check, so the hot
event loop pays near-zero cost when observability is off
(``benchmarks/test_obs_overhead.py`` asserts the bound).
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_EMITTER,
    JsonlTraceEmitter,
    MemoryTraceEmitter,
    TraceEmitter,
    read_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTraceEmitter",
    "MemoryTraceEmitter",
    "MetricsRegistry",
    "NULL_EMITTER",
    "Observability",
    "TraceEmitter",
    "read_trace",
]


class Observability:
    """Metrics registry + trace emitter, passed around as one handle."""

    __slots__ = ("metrics", "trace")

    def __init__(self, trace: TraceEmitter | None = None) -> None:
        self.metrics = MetricsRegistry()
        self.trace = trace if trace is not None else NULL_EMITTER

    @classmethod
    def for_files(cls, trace_path: str | Path | None = None) -> "Observability":
        """Bundle writing trace events to ``trace_path`` (metrics always on)."""
        trace = JsonlTraceEmitter(trace_path) if trace_path else NULL_EMITTER
        return cls(trace=trace)

    def close(self) -> None:
        """Flush/close the trace sink.  Idempotent."""
        self.trace.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
