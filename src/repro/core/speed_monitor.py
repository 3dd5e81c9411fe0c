"""SpeedMonitor: per-node input-processing-speed estimation (Section III-D).

Containers report IPS (eq. 3) through 5-second heartbeats.  A single report
is noisy — some records cost more than others — so the monitor averages the
reports *from the same round* across a node's containers, then keeps a
sliding window of the last ``WINDOW`` round-averages per node.  Completed
tasks contribute their end-to-end IPS as an extra sample, which is how the
paper's "first-wave feedback" (Fig. 7) arrives.

The monitor numbers the heartbeat rounds it ingests itself: each
``report_round`` call is the next round, and that count (``rounds``) is the
``round`` field of its ``ips`` events.  So one monitor can outlive an AM (an
iterative warm start) or serve many AMs at once (``repro serve``) with no
renumbering by the caller.  It takes its clock and observability from the
:class:`~repro.sim.engine.Simulator` it runs on; a monitor built without one
(the local runtime) emits nothing.

``getSpeed`` exposes the smoothed per-node estimate; ``relative_speed``
normalizes to the slowest known node, the quantity Algorithm 1's horizontal
scaling consumes.

Reads are cheap because the offer path makes them on every container
offer: each new sample stores the node's smoothed speed (the window mean,
``sum(bucket) / len(bucket)``) and the slowest one, and bumps
:attr:`SpeedMonitor.version`, so ``get_speed`` and ``slowest_speed`` are
plain reads and callers may cache anything derived from the speeds per
version.  :attr:`SpeedMonitor.speeds` is a read-only view of the smoothed
speeds for a caller that reads every node at once (FlexMap's tail cap).
While a :class:`repro.check.InvariantChecker` is armed
(:attr:`SpeedMonitor.check`), every cached read is compared with the
window means recomputed from scratch; the view's readers compare what they
derive from it with the same sum over ``get_speed`` (the tail cap's
capacity), so each node's speed is still checked.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Samples per node in the sliding window.
WINDOW = 5


class SpeedMonitor:
    """Sliding-window IPS estimates per node."""

    #: A :class:`repro.check.InvariantChecker` set while one is armed on a
    #: run using this monitor; it checks each cached speed read.
    check = None

    def __init__(self, sim: "Simulator | None" = None) -> None:
        self.sim = sim
        self._samples: dict[str, deque[float]] = {}
        # Smoothed speed per node and their minimum, refreshed on every
        # sample.
        self._speeds: dict[str, float] = {}
        #: Read-only live view of the smoothed speeds, for callers that
        #: read many nodes at once; unlike ``get_speed`` it is never checked.
        self.speeds = MappingProxyType(self._speeds)
        self._slowest: float | None = None
        #: Bumped on every new sample; speed-derived caches key on it.
        self.version = 0
        #: Heartbeat rounds ingested so far (the last round's number).
        self.rounds = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def report_round(self, node_ips: dict[str, list[float]]) -> None:
        """Ingest the next heartbeat round: per-node lists of container IPSes.

        Zero entries (containers still in JVM startup) are discarded; a
        node with no productive containers this round contributes nothing.
        """
        self.rounds += 1
        for node_id, values in node_ips.items():
            productive = [v for v in values if v > 0]
            if productive:
                self._push(node_id, sum(productive) / len(productive), "round", self.rounds)

    def report_completion(self, node_id: str, ips: float) -> None:
        """Ingest a completed task's end-to-end IPS."""
        if ips > 0:
            self._push(node_id, ips, "completion")

    def _push(
        self, node_id: str, value: float, source: str, round_no: int | None = None
    ) -> None:
        bucket = self._samples.get(node_id)
        if bucket is None:
            bucket = self._samples[node_id] = deque(maxlen=WINDOW)
        bucket.append(value)
        self._speeds[node_id] = sum(bucket) / len(bucket)
        self._slowest = min(self._speeds.values())
        self.version += 1
        obs = self.sim.obs if self.sim is not None else None
        if obs is not None:
            obs.metrics.counter("monitor.samples").inc()
            obs.trace.emit(
                "ips", self.sim.now, node=node_id, source=source, round=round_no,
                sample=round(value, 4), smoothed=round(self._speeds[node_id], 4),
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
