"""Variable-rate work processes.

Task execution on a node whose speed changes over time (cloud interference,
multi-tenant co-runners) is modelled as a fixed amount of *work* consumed at
a piecewise-constant *rate*.  When the rate changes, the remaining work is
settled at the old rate and the completion event is rescheduled — the
standard preemptive-rate DES pattern.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import EventHandle, Simulator


class VariableRateWork:
    """A unit of work consumed at a node-dependent, time-varying rate.

    Parameters
    ----------
    sim:
        The simulator driving this process.
    work:
        Total work, in arbitrary units (we use MB x relative cost).
    rate:
        Initial consumption rate in work units per simulated second.
    on_done:
        Callback fired when the work completes.
    """

    def __init__(
        self,
        sim: Simulator,
        work: float,
        rate: float,
        on_done: Callable[[], None],
    ) -> None:
        if work < 0:
            raise ValueError(f"negative work: {work}")
        if rate <= 0:
            raise ValueError(f"non-positive rate: {rate}")
        self._sim = sim
        self._total_work = work
        self._remaining = work
        self._rate = rate
        self._on_done = on_done
        self._last_update = sim.now
        self._finish_event: EventHandle | None = None
        self._done = False
        self._cancelled = False
        self._reschedule()

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Account work consumed since the last settlement."""
        elapsed = self._sim.now - self._last_update
        self._remaining = max(0.0, self._remaining - elapsed * self._rate)
        self._last_update = self._sim.now

    def _reschedule(self) -> None:
        if self._finish_event is not None:
            self._finish_event.cancel()
        delay = self._remaining / self._rate
        self._finish_event = self._sim.schedule(delay, self._finish)

    def _finish(self) -> None:
        if self._done or self._cancelled:
            return
        self._settle()
        self._remaining = 0.0
        self._done = True
        self._on_done()

    # ------------------------------------------------------------------
    def set_rate(self, rate: float) -> None:
        """Change the consumption rate, settling progress at the old rate."""
        if rate <= 0:
            raise ValueError(f"non-positive rate: {rate}")
        if self._done or self._cancelled:
            return
        self._settle()
        self._rate = rate
        self._reschedule()

    def cancel(self) -> None:
        """Abort the work; ``on_done`` will never fire."""
        if self._done:
            return
        self._settle()
        self._cancelled = True
        if self._finish_event is not None:
            self._finish_event.cancel()

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining_work(self) -> float:
        """Remaining work, accounting for progress since the last event."""
        if self._done:
            return 0.0
        elapsed = self._sim.now - self._last_update
        return max(0.0, self._remaining - elapsed * self._rate)

    def progress(self) -> float:
        """Fraction of work completed, in [0, 1]."""
        if self._total_work == 0:
            return 1.0
        return 1.0 - self.remaining_work() / self._total_work
