"""Split sizing policies for the local runtime.

``UniformSplitter`` is stock Hadoop's one-size-fits-all;
``ElasticSplitter`` drives the *same* FlexMap core used by the simulator —
:class:`~repro.core.speed_monitor.SpeedMonitor` for per-worker speed and
:class:`~repro.core.sizing.DynamicSizer` for Algorithm 1 — against the
virtual clock, proving the sizing logic is backend-agnostic.
"""

from __future__ import annotations

import math

from repro.core.sizing import DynamicSizer
from repro.core.speed_monitor import SpeedMonitor
from repro.localrt.runtime import LocalTaskRecord, WorkerSpec


class UniformSplitter:
    """Fixed-size splits: every task takes ``bus_per_task`` block units."""

    def __init__(self, bus_per_task: int = 8) -> None:
        if bus_per_task < 1:
            raise ValueError(f"need at least one BU per task: {bus_per_task}")
        self.bus_per_task = bus_per_task
        self._next = 0
        self._total = 0

    def reset(self, num_bus: int, workers: list[WorkerSpec]) -> None:
        """Start a new job over ``num_bus`` block units."""
        self._next = 0
        self._total = num_bus

    def next_split(self, worker: WorkerSpec) -> list[int] | None:
        """BU indices for the worker's next task, or None when done."""
        if self._next >= self._total:
            return None
        end = min(self._next + self.bus_per_task, self._total)
        picked = list(range(self._next, end))
        self._next = end
        return picked

    def task_done(self, worker: WorkerSpec, record: LocalTaskRecord) -> None:
        """Uniform sizing ignores feedback."""


class ElasticSplitter:
    """FlexMap sizing on the local runtime.

    Every worker starts at one BU; vertical scaling grows its size unit from
    task productivity, horizontal scaling multiplies by its speed relative
    to the slowest observed worker, and a capacity-proportional tail cap
    prevents one worker from swallowing the remainder.
    """

    def __init__(self) -> None:
        self.reset(0, [])

    def reset(self, num_bus: int, workers: list[WorkerSpec]) -> None:
        """Start a new job over ``num_bus`` block units."""
        self.monitor = SpeedMonitor()
        self.sizer = DynamicSizer()
        self._next = 0
        self._total = num_bus
        self._workers = list(workers)

    # ------------------------------------------------------------------
    def _tail_cap(self, worker: WorkerSpec) -> int:
        remaining = self._total - self._next
        speeds = {
            w.worker_id: self.monitor.get_speed(w.worker_id) or 1.0 for w in self._workers
        }
        total = sum(speeds.values())
        share = speeds[worker.worker_id] / total if total > 0 else 1.0
        return max(1, int(math.ceil(remaining * share)))

    def next_split(self, worker: WorkerSpec) -> list[int] | None:
        """BU indices for the worker's next task, or None when done."""
        if self._next >= self._total:
            return None
        rel = self.monitor.relative_speed(worker.worker_id)
        n = self.sizer.task_size_bus(worker.worker_id, rel)
        n = min(n, self._tail_cap(worker), self._total - self._next)
        picked = list(range(self._next, self._next + n))
        self._next += n
        return picked

    def task_done(self, worker: WorkerSpec, record: LocalTaskRecord) -> None:
        """Feed IPS and productivity back into the FlexMap core."""
        if record.runtime > 0 and record.num_records > 0:
            self.monitor.report_completion(
                worker.worker_id, record.num_records / record.runtime
            )
        self.sizer.record_wave(
            worker.worker_id, min(1.0, max(0.0, record.productivity))
        )
