"""SpeedMonitor: per-node input-processing-speed estimation (Section III-D).

Containers report IPS (eq. 3) through 5-second heartbeats.  A single report
is noisy — some records cost more than others — so the monitor averages the
reports *from the same round* across a node's containers, then keeps a
sliding window of the last ``WINDOW`` round-averages per node.  Completed
tasks contribute their end-to-end IPS as an extra sample, which is how the
paper's "first-wave feedback" (Fig. 7) arrives.

Because the paper's averaging is round-scoped, the monitor tracks the last
round number seen per node and drops reports whose round is not strictly
newer (a replayed or mis-batched round would otherwise mix samples across
rounds undetected); dropped reports are tallied in ``stale_reports``.
Heartbeat round numbers are scoped to one AM lifetime — a warm-started AM
reusing a monitor (iterative workloads) calls :meth:`new_epoch` so the
restarted numbering is not mistaken for stale rounds.

``getSpeed`` exposes the smoothed per-node estimate; ``relative_speed``
normalizes to the slowest known node, the quantity Algorithm 1's horizontal
scaling consumes.

Reads are cheap because the offer path makes them on every container
offer: each new sample stores the node's smoothed speed (the window mean,
``sum(bucket) / len(bucket)``) and the slowest one, and bumps
:attr:`SpeedMonitor.version`, so ``get_speed`` and ``slowest_speed`` are
plain reads and callers may cache anything derived from the speeds per
version.  While a :class:`repro.check.InvariantChecker` is armed
(:attr:`SpeedMonitor.check`), every cached read is compared with the
window means recomputed from scratch.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: Samples per node in the sliding window.
WINDOW = 5


class SpeedMonitor:
    """Sliding-window IPS estimates per node."""

    #: A :class:`repro.check.InvariantChecker` set while one is armed on a
    #: run using this monitor; it checks each cached speed read.
    check = None

    def __init__(
        self,
        obs: "Observability | None" = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._samples: dict[str, deque[float]] = {}
        # Smoothed speed per node and their minimum, refreshed on every
        # sample.
        self._speeds: dict[str, float] = {}
        self._slowest: float | None = None
        #: Bumped on every new sample; speed-derived caches key on it.
        self.version = 0
        self._last_round: dict[str, int] = {}
        self.stale_reports = 0
        self.obs = obs
        self.clock = clock

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def new_epoch(self) -> None:
        """Reset round bookkeeping (samples survive).

        Call when a new heartbeat sequence starts numbering from scratch —
        e.g. a warm-started iterative AM reusing this monitor's state.
        """
        self._last_round.clear()

    def last_round(self, node_id: str) -> int | None:
        """Most recent heartbeat round ingested for the node, if any."""
        return self._last_round.get(node_id)

    def report_round(self, round_no: int, node_ips: dict[str, list[float]]) -> int:
        """Ingest one heartbeat round: per-node lists of container IPSes.

        Zero entries (containers still in JVM startup) are discarded; a
        node with no productive containers this round contributes nothing.
        A node whose ``round_no`` is not strictly newer than its last seen
        round is a stale/replayed report: it is dropped and counted.
        Returns the number of per-node reports dropped as stale.
        """
        dropped = 0
        for node_id, values in node_ips.items():
            last = self._last_round.get(node_id)
            if last is not None and round_no <= last:
                dropped += 1
                self.stale_reports += 1
                if self.obs is not None:
                    self.obs.metrics.counter("monitor.stale_round_reports").inc()
                continue
            self._last_round[node_id] = round_no
            productive = [v for v in values if v > 0]
            if not productive:
                continue
            self._push(
                node_id,
                sum(productive) / len(productive),
                source="round",
                round_no=round_no,
            )
        return dropped

    def report_completion(self, node_id: str, ips: float) -> None:
        """Ingest a completed task's end-to-end IPS."""
        if ips > 0:
            self._push(node_id, ips, source="completion")

    def _push(
        self,
        node_id: str,
        value: float,
        source: str = "round",
        round_no: int | None = None,
    ) -> None:
        bucket = self._samples.setdefault(node_id, deque(maxlen=WINDOW))
        bucket.append(value)
        self._speeds[node_id] = sum(bucket) / len(bucket)
        self._slowest = min(self._speeds.values())
        self.version += 1
        if self.obs is not None:
            self.obs.metrics.counter("monitor.samples").inc()
            self.obs.trace.emit(
                "ips",
                self.clock() if self.clock is not None else 0.0,
                node=node_id,
                source=source,
                round=round_no,
                sample=round(value, 4),
                smoothed=round(self._speeds[node_id], 4),
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def known_nodes(self) -> list[str]:
        """Nodes with at least one speed sample, sorted."""
        return sorted(self._samples)

    def get_speed(self, node_id: str) -> float | None:
        """Smoothed IPS for the node, or None before any feedback."""
        speed = self._speeds.get(node_id)
        if self.check is not None and speed is not None:
            self.check.incremental_state(
                f"speed of {node_id}", speed, self._window_mean(node_id)
            )
        return speed

    def slowest_speed(self) -> float | None:
        """Smallest smoothed IPS across known nodes, or None."""
        if self.check is not None:
            means = [self._window_mean(n) for n in self._samples]
            self.check.incremental_state(
                "slowest speed", self._slowest, min(means) if means else None
            )
        return self._slowest

    def _window_mean(self, node_id: str) -> float:
        """The node's smoothed speed recomputed from its sample window."""
        bucket = self._samples[node_id]
        return sum(bucket) / len(bucket)

    def relative_speed(self, node_id: str) -> float:
        """Node speed over the slowest known node's speed (>= 1 ideally).

        Returns 1.0 until the monitor has feedback for this node — before
        the first wave completes, every machine is presumed equal, exactly
        the paper's startup behaviour (all tasks begin at one BU).
        """
        mine = self.get_speed(node_id)
        slowest = self.slowest_speed()
        if mine is None or slowest is None or slowest <= 0:
            return 1.0
        return max(1.0, mine / slowest)
