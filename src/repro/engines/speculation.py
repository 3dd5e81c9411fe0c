"""Speculative execution: LATE backups for maps and reduces.

LATE (Zaharia et al., OSDI'08 — the paper's [12], which YARN implements):
when a container is free and no regular work remains, estimate each running
task's time-to-completion from its progress rate and back up the one with
the *longest* estimated finish, provided its progress rate is below the
SlowTaskThreshold percentile and the number of live speculative copies is
under SpeculativeCap.

:meth:`SpeculationManager.stragglers` is the one straggler rule, shared by
maps (:meth:`~SpeculationManager.select_speculative` adds the cap and the
percentile pick) and reduces
(:meth:`repro.engines.base.ReducePhaseDriver.maybe_speculate` backs up the
candidate with the longest estimated time left).

Whichever copy finishes first wins; the loser is killed and its record is
marked ``killed`` (wasted work — one of the costs Fig. 8's "No Speculation"
variant avoids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.engines.base import MapAssignment
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.split import InputSplit
from repro.yarn.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster


@dataclass(frozen=True)
class SpeculationConfig:
    """Speculation policy knobs (LATE defaults)."""

    enabled: bool = True
    speculative_cap_frac: float = 0.1  # of cluster slots
    slow_task_percentile: float = 25.0  # LATE SlowTaskThreshold
    min_age_s: float = 30.0  # don't judge brand-new tasks
    max_progress: float = 0.9  # nearly-done tasks aren't worth backing up


class SpeculationManager:
    """Tracks original/backup copies for one AM."""

    def __init__(self, am: "ApplicationMaster", config: SpeculationConfig) -> None:
        self.am = am
        self.config = config
        self.speculated_tasks: set[str] = set()
        self.launched = 0

    # ------------------------------------------------------------------
    def live_backups(self) -> list[TaskAttempt]:
        """Speculative copies currently running."""
        return [a for a in self.am.maps.running if a.record.speculative]

    def _cap(self) -> int:
        return max(1, int(self.config.speculative_cap_frac * self.am.cluster.total_slots))

    def _fresh_copy_estimate_s(self, kind: str) -> float:
        """Expected runtime of a re-execution, from completed attempts of
        ``kind`` ("map" or "reduce").

        Hadoop only backs up a task whose estimated remaining time exceeds
        what a fresh copy would need — re-running from scratch is otherwise
        pure waste.  Falls back to infinity before any attempt of the kind
        has completed (nothing to estimate from, and first-wave speculation
        is premature).
        """
        done = [
            r
            for r in self.am.trace.records
            if r.kind == kind and not r.killed and r.runtime > 0
        ]
        if not done:
            return math.inf
        return sum(r.runtime for r in done) / len(done)

    def stragglers(
        self, running: Iterable[TaskAttempt], kind: str, speculated: set[str]
    ) -> list[TaskAttempt]:
        """Original copies among ``running`` worth backing up.

        A straggler has run at least ``min_age_s``, is below
        ``max_progress``, has no backup yet (its task id is not in
        ``speculated``), and would take longer to finish than a fresh copy
        of its ``kind``.
        """
        cfg = self.config
        fresh = self._fresh_copy_estimate_s(kind)
        return [
            a
            for a in running
            if not a.record.speculative
            and a.task_id not in speculated
            and a.elapsed() >= cfg.min_age_s
            and a.progress() < cfg.max_progress
            and a.est_time_left() > fresh
        ]

    def select_speculative(self, container: Container) -> MapAssignment | None:
        """Pick a straggler to back up on the offered container."""
        cfg = self.config
        if not cfg.enabled or len(self.live_backups()) >= self._cap():
            return None
        candidates = self.stragglers(self.am.maps.running, "map", self.speculated_tasks)
        if not candidates:
            return None
        victim = self._pick_late(candidates)
        if victim is None:
            return None
        # Re-read the victim's blocks on the new node; locality recomputed.
        blocks = self.am.maps.running[victim].split.blocks
        assignment = MapAssignment(
            task_id=victim.task_id,
            split=InputSplit.for_node(blocks, container.node_id),
            wave=self.am.maps.running[victim].wave,
            speculative=True,
        )
        self.speculated_tasks.add(victim.task_id)
        self.launched += 1
        return assignment

    def _pick_late(self, candidates: list[TaskAttempt]) -> TaskAttempt | None:
        rates = np.array([a.progress_rate() for a in candidates])
        threshold = np.percentile(rates, self.config.slow_task_percentile)
        slow = [a for a, r in zip(candidates, rates) if r <= threshold]
        if not slow:
            return None
        return max(slow, key=lambda a: (a.est_time_left(), a.task_id))

    # ------------------------------------------------------------------
    def on_map_complete(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        """First copy home wins: kill the remaining copies of the task."""
        if attempt.task_id not in self.speculated_tasks:
            return
        maps = self.am.maps
        for copy in [a for a in maps.running if a.task_id == attempt.task_id]:
            maps.kill(copy)

    def on_tick(self) -> None:
        """Keep the last wave alive: poke the RM so idle slots get offered
        for speculation even though no regular work remains."""
        index = self.am.index
        if (
            self.config.enabled
            and not self.am.maps.done()
            and index is not None
            and index.unprocessed == 0
        ):
            # Last wave: keep poking the RM so free slots get offered for
            # speculation even though no regular work remains.
            self.am.rm.request_offers()
