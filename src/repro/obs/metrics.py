"""Metrics primitives: counters, gauges, and histograms.

A :class:`MetricsRegistry` is the process-local store every instrumented
component writes into.  Instruments are created on first use and identified
by dotted names (``am.maps_launched``, ``sim.heap_depth``,
``flexmap.task_size_bus``); :meth:`MetricsRegistry.snapshot` flattens the
registry into plain JSON-serializable dicts for reports and the
``--metrics-out`` CLI flag.

Recording stays plain Python (a counter add, a gauge store, a list
append); only :meth:`Histogram.summary` reaches numpy, through
:class:`repro.metrics.stats.Summary`, the summary every sample in the
package uses.
"""

from __future__ import annotations


from repro.metrics.stats import Summary


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the count."""
        if n < 0:
            raise ValueError(f"counter increments must be >= 0: {n}")
        self.value += n


class Gauge:
    """Last-write-wins scalar (heap depth, events processed, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = float(value)


class Histogram:
    """Value distribution with summary-statistics snapshots."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))

    def summary(self) -> dict[str, float]:
        """Count/mean/min/max/p50/p95 of the recorded samples."""
        if not self.values:
            return {"count": 0}
        s = Summary.of(self.values)
        return {
            "count": s.n,
            "mean": s.mean,
            "min": s.min,
            "max": s.max,
            "p50": s.median,
            "p95": s.p95,
        }


class MetricsRegistry:
    """Named instruments, created on demand."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram()
        return inst

    def snapshot(self) -> dict[str, dict]:
        """Flatten every instrument into a JSON-serializable dict."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }
