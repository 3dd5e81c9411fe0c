"""Unit timing in reference-normalised CPU seconds.

A shared VM's CPU runs at different speeds from one second to the next: a
neighbour on the same physical core or a frequency change can make the
same pure-Python work take up to twice as long for minutes at a time.  CPU
time already leaves out the time the host runs someone else (steal time);
to take the speed changes out as well, :class:`Meter` runs a fixed
reference loop after every ~0.2 CPU seconds of timed work and rescales
that work by how fast the reference ran around it:

    normalised = cpu_s * REFERENCE_NOMINAL_S / mean(reference before, after)

The reference is a small event loop written here (heap, objects, dicts,
method calls, floats) and shares no code with the simulator, so a change
to the simulator moves the timed work and not the yardstick.
"""

from __future__ import annotations

import heapq
import time

#: Iterations of one reference run.
REFERENCE_EVENTS = 10_000
#: CPU seconds one reference run is scaled to: roughly what it takes on a
#: 2-core Xeon VM at its usual speed, so normalised figures read like CPU
#: seconds there.
REFERENCE_NOMINAL_S = 0.015
#: CPU seconds of timed work between two reference runs.
CHUNK_CPU_S = 0.2


class _Node:
    __slots__ = ("id", "speed", "busy", "done")

    def __init__(self, i: int) -> None:
        self.id = i
        self.speed = 1.0 + (i % 7) * 0.1
        self.busy = 0
        self.done: list[tuple[float, float]] = []

    def finish(self, t: float, task: dict) -> float:
        self.busy -= 1
        self.done.append((t, task["mb"]))
        return task["mb"] / self.speed


def reference_loop(n: int = REFERENCE_EVENTS) -> float:
    """A fixed small event loop; returns a checksum of its work."""
    nodes = [_Node(i) for i in range(16)]
    heap: list[tuple] = []
    seq = 0
    stats: dict[int, int] = {}
    for k in range(64):
        heapq.heappush(heap, (k * 0.5, seq, nodes[k % 16], {"mb": 64.0 + k}))
        seq += 1
    total = 0.0
    for _ in range(n):
        t, _, node, task = heapq.heappop(heap)
        total += node.finish(t, task)
        stats[node.id] = stats.get(node.id, 0) + 1
        nxt = nodes[(node.id * 5 + seq) % 16]
        nxt.busy += 1
        if len(nxt.done) > 32:
            nxt.done = [d for d in nxt.done if d[1] > 70.0][-8:]
        heapq.heappush(heap, (t + 1.0 / nxt.speed, seq, nxt, task))
        seq += 1
    return total


class Meter:
    """Times units of work and appends each unit's time to a list.

    With ``calibrate`` the times are normalised CPU seconds (see the module
    docstring); a unit's time is rescaled when its chunk is flushed, which
    happens by itself every :data:`CHUNK_CPU_S` and must be done by the
    caller with :meth:`flush` before reading the times.  Without it the
    times are plain CPU seconds and no reference loop runs.
    ``reference_wall_s`` is the host time spent in reference runs.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.reference_wall_s = 0.0
        self._pending: list[tuple[list[float], int]] = []
        self._pending_cpu = 0.0
        self._started = 0.0
        self._last_reference = self._reference() if calibrate else 0.0

    def _reference(self) -> float:
        wall = time.perf_counter()
        start = time.process_time()
        reference_loop()
        cpu = time.process_time() - start
        self.reference_wall_s += time.perf_counter() - wall
        return cpu

    def start(self) -> None:
        self._started = time.process_time()

    def stop(self, times: list[float]) -> None:
        """End the unit begun by :meth:`start` and record it in ``times``."""
        cpu = time.process_time() - self._started
        times.append(cpu)
        if not self.calibrate:
            return
        self._pending.append((times, len(times) - 1))
        self._pending_cpu += cpu
        if self._pending_cpu >= CHUNK_CPU_S:
            self.flush()

    def lap(self, times: list[float]) -> None:
        """End the current unit and start the next one."""
        self.stop(times)
        self.start()

    def flush(self) -> None:
        """Rescale the units timed since the last reference run."""
        if not self._pending:
            return
        reference = self._reference()
        scale = REFERENCE_NOMINAL_S / ((self._last_reference + reference) / 2)
        for times, index in self._pending:
            times[index] *= scale
        self._last_reference = reference
        self._pending.clear()
        self._pending_cpu = 0.0
