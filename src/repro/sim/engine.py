"""Heap-based discrete-event simulation engine.

The engine is deliberately minimal: events are ``(time, seq)``-ordered
callbacks.  Determinism is guaranteed by the monotonically increasing
sequence number used to break ties between events scheduled for the same
instant, so two runs with identical inputs produce identical traces.

Heap entries are plain ``(time, seq, handle)`` tuples: ``seq`` is unique,
so tuple comparison never reaches the handle and stays in C.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


class EventHandle:
    """Cancellable reference to a scheduled event.

    Cancellation is lazy: the entry stays in the heap and is skipped when
    popped.  This keeps :meth:`Simulator.schedule` and :meth:`cancel` O(log n)
    and O(1) amortized respectively.  The owning simulator counts cancelled
    entries and compacts the heap once they are the majority, so long runs
    that cancel many events (rate changes re-scheduling task finishes,
    multi-job services stopping heartbeats) stay bounded in memory.
    """

    __slots__ = ("callback", "cancelled", "time", "_sim")

    def __init__(
        self, time: float, callback: Callable[[], Any], sim: "Simulator | None" = None
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """Discrete-event simulator with a virtual clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, obs: "Observability | None" = None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._cancelled_in_heap: int = 0
        self._compactions: int = 0
        #: The run's :class:`~repro.obs.Observability` (or None), which the
        #: AMs and SpeedMonitor on this simulator observe through.  The
        #: engine itself is sampled (record_obs), never per-event: step() has
        #: no instrumentation branch, so a disabled run costs nothing extra.
        self.obs = obs

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        return handle

    # ------------------------------------------------------------------
    # lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A handle in our heap was cancelled; compact once they dominate.

        Compaction rebuilds the heap from live entries — O(n), amortized
        O(1) per cancellation since it halves the heap at most every n/2
        cancels.  Entries keep their (time, seq) keys, so event order is
        untouched.
        """
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (observability/tests)."""
        return self._compactions

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next pending event.  Returns False when idle."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = time
            self._events_processed += 1
            handle.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event heap drains, ``until`` is reached, or
        ``max_events`` have been processed.

        A bounded run (``until=T``) always leaves ``now == T`` when it stops
        for lack of work — including when the heap drains (or every pending
        event is cancelled) before ``T`` — so back-to-back ``run(until=...)``
        calls observe a consistent clock.  Stopping on ``max_events`` leaves
        the clock at the last processed event: work may remain before ``T``.
        """
        processed = 0
        while self._heap:
            if max_events is not None and processed >= max_events:
                return
            if until is not None:
                nxt = self.peek_time()
                if nxt is None:
                    break
                if nxt > until:
                    self.now = until
                    self._record_run_obs()
                    return
            if not self.step():
                break
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        self._record_run_obs()

    def peek_time(self) -> float | None:
        """Time of the next non-cancelled event, or None if idle."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_in_heap -= 1
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for e in self._heap if not e[2].cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # correctness hooks (zero-cost unless installed)
    # ------------------------------------------------------------------
    def install_step_interceptor(
        self, hook: Callable[[], Any]
    ) -> Callable[[], None]:
        """Invoke ``hook`` after every processed event.

        The interceptor is installed by *wrapping* :meth:`step` on this
        instance, so a simulator that never installs one keeps the exact
        unhooked hot loop — the same zero-cost-when-disabled contract as
        :mod:`repro.obs`.  Used by :class:`repro.check.InvariantChecker` to
        verify clock monotonicity and slot bounds per event.  Returns an
        uninstall callable restoring the previous ``step``.
        """
        inner = self.step

        def intercepted_step() -> bool:
            ran = inner()
            if ran:
                hook()
            return ran

        self.step = intercepted_step  # type: ignore[method-assign]

        def uninstall() -> None:
            self.step = inner  # type: ignore[method-assign]

        return uninstall

    # ------------------------------------------------------------------
    # observability (sampled — never on the per-event path)
    # ------------------------------------------------------------------
    def record_obs(self) -> None:
        """Snapshot engine gauges into the attached metrics registry.

        Called by drivers at natural sampling points (heartbeat rounds, end
        of bounded runs, job completion); a no-op when observability is off.
        """
        if self.obs is None:
            return
        metrics = self.obs.metrics
        metrics.gauge("sim.events_processed").set(self._events_processed)
        metrics.gauge("sim.heap_depth").set(len(self._heap))
        metrics.gauge("sim.now").set(self.now)

    def _record_run_obs(self) -> None:
        if self.obs is not None:
            self.record_obs()
