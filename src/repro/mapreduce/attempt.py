"""Task attempt execution.

An attempt runs three phases on its container's node:

1. **startup** — container allocation + JVM launch (fixed wall-clock,
   the overhead term of productivity eq. 1);
2. **transfer** — remote input fetch (map: non-local BUs; reduce: cross-node
   shuffle), fixed wall-clock set by the network model;
3. **compute** — a :class:`~repro.sim.work.VariableRateWork` consumed at the
   node's effective speed, so interference mid-task slows it down.

Attempts can be killed (speculation race lost) or stopped early with partial
output committed (SkewTune straggler mitigation).

Ownership: an attempt keeps no fired or cancelled phase handle and no stored
bound method of its own, and its compute process drops the attempt's
callback once it is done or cancelled.  So nothing but its users (the AM's
running tables) refers to a finished attempt, and reference counting frees
it, its work process and its handles as soon as the AM drops it.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.cluster.node import Node
from repro.sim.engine import EventHandle, Simulator
from repro.sim.trace import TaskRecord
from repro.sim.work import VariableRateWork


class TaskAttempt:
    """One map or reduce attempt bound to a node."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        task_id: str,
        kind: str,
        size_mb: float,
        work_s: float,
        overhead_s: float,
        transfer_s: float = 0.0,
        on_complete: Callable[["TaskAttempt"], None] | None = None,
        wave: int = 0,
        speculative: bool = False,
        num_bus: int = 0,
        local_mb: float = 0.0,
        remote_mb: float = 0.0,
    ) -> None:
        if size_mb < 0 or work_s < 0 or overhead_s < 0 or transfer_s < 0:
            raise ValueError("attempt parameters must be non-negative")
        self.sim = sim
        self.node = node
        self.task_id = task_id
        self.kind = kind
        self.size_mb = size_mb
        self.work_s = work_s
        self.overhead_s = overhead_s
        self.transfer_s = transfer_s
        self.on_complete = on_complete
        self.record = TaskRecord(
            task_id=task_id,
            kind=kind,
            node=node.node_id,
            size_mb=size_mb,
            start=sim.now,
            overhead=overhead_s,
            wave=wave,
            speculative=speculative,
            num_bus=num_bus,
            local_mb=local_mb,
            remote_mb=remote_mb,
        )
        self.phase = "startup"
        self.finished = False
        self.killed = False
        self._compute: VariableRateWork | None = None
        self._phase_event: EventHandle | None = None
        self._compute_start = math.nan
        self._phase_event = sim.schedule(overhead_s, self._begin_transfer)

    # ------------------------------------------------------------------
    # phase transitions
    # ------------------------------------------------------------------
    def _begin_transfer(self) -> None:
        if self.killed:
            return
        self.phase = "transfer"
        self._phase_event = self.sim.schedule(self.transfer_s, self._begin_compute)

    def _begin_compute(self) -> None:
        if self.killed:
            return
        self.phase = "compute"
        self._phase_event = None
        self._compute_start = self.sim.now
        self.node.add_rate_listener(self._on_rate_change)
        self._compute = VariableRateWork(
            self.sim,
            work=self.work_s,
            rate=self.node.effective_speed,
            on_done=self._finish,
        )

    def _on_rate_change(self, speed: float) -> None:
        if self._compute is not None and not self._compute.done:
            self._compute.set_rate(speed)

    def _finish(self) -> None:
        self.finished = True
        self.phase = "done"
        self.node.remove_rate_listener(self._on_rate_change)
        self.record.end = self.sim.now
        self.record.effective = self.sim.now - (self.record.start + self.overhead_s)
        self.record.processed_mb = self.size_mb
        if self.on_complete is not None:
            self.on_complete(self)

    # ------------------------------------------------------------------
    # termination by the scheduler
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Abort, discarding all output (lost a speculation race)."""
        self._terminate(discard=True)

    def stop_early(self) -> float:
        """Stop, committing partial output (SkewTune).

        Returns the processed input MB; the caller repartitions the rest.
        """
        processed = self.processed_mb()
        self._terminate(discard=False, processed=processed)
        return processed

    def _terminate(self, discard: bool, processed: float = 0.0) -> None:
        if self.finished or self.killed:
            return
        self.killed = True
        self.phase = "dead"
        if self._phase_event is not None:
            self._phase_event.cancel()
            self._phase_event = None
        if self._compute is not None:
            self._compute.cancel()
        self.node.remove_rate_listener(self._on_rate_change)
        self.record.end = self.sim.now
        self.record.killed = discard
        self.record.processed_mb = 0.0 if discard else processed
        if not math.isnan(self._compute_start):
            self.record.effective = self.sim.now - max(
                self.record.start + self.overhead_s, self.record.start
            )

    # ------------------------------------------------------------------
    # progress reporting (heartbeats, speculation, SkewTune)
    # ------------------------------------------------------------------
    def progress(self) -> float:
        """Fraction of input bytes processed, in [0, 1]."""
        if self.finished:
            return 1.0
        if self._compute is None:
            return 0.0
        return self._compute.progress()

    def processed_mb(self) -> float:
        """Input MB consumed so far."""
        return self.size_mb * self.progress()

    def ips(self) -> float:
        """Input processing speed, eq. (3): bytes read / attempt runtime."""
        elapsed = self.sim.now - self.record.start
        if elapsed <= 0:
            return 0.0
        return self.processed_mb() / elapsed

    def elapsed(self) -> float:
        """Seconds since the attempt started."""
        return self.sim.now - self.record.start

    def progress_rate(self) -> float:
        """Progress per second since launch (LATE's scoring basis)."""
        elapsed = self.elapsed()
        if elapsed <= 0:
            return 0.0
        return self.progress() / elapsed

    def est_time_left(self) -> float:
        """LATE's estimated time to completion: (1 - progress) / rate."""
        rate = self.progress_rate()
        if rate <= 0:
            return math.inf
        return (1.0 - self.progress()) / rate
