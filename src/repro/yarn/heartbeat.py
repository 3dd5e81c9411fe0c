"""Heartbeat service: periodic container -> AM progress reports.

Section III-D: each container reports its input-processing speed (IPS,
eq. 3) to the AM every 5 seconds.  We run one global ticker per job instead
of one event per container — same information, far fewer events.  The tick
also drives time-based scheduler logic (speculation checks, SkewTune
straggler scans).

Each service owns one pending heap event; :meth:`HeartbeatService._tick`
reschedules the next one through the instance attribute, so correctness
harnesses that wrap ``service._tick`` keep intercepting later ticks.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import EventHandle, Simulator

HEARTBEAT_PERIOD_S = 5.0


class HeartbeatService:
    """Fixed-period ticker with subscriber callbacks."""

    def __init__(self, sim: Simulator, period_s: float = HEARTBEAT_PERIOD_S) -> None:
        if period_s <= 0:
            raise ValueError(f"non-positive heartbeat period: {period_s}")
        self.sim = sim
        self.period_s = period_s
        self._subscribers: list[Callable[[int], None]] = []
        self._round = 0
        self._event: EventHandle | None = None
        self._running = False

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked with the heartbeat round number."""
        self._subscribers.append(callback)

    def start(self) -> None:
        """Begin ticking; idempotent."""
        if self._running:
            return
        self._running = True
        self._event = self.sim.schedule(self.period_s, self._tick)

    def stop(self) -> None:
        """Stop ticking and cancel the pending event."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._round += 1
        for callback in list(self._subscribers):
            callback(self._round)
        if self._running:
            self._event = self.sim.schedule(self.period_s, self._tick)

    @property
    def rounds(self) -> int:
        """Number of rounds fired so far."""
        return self._round
