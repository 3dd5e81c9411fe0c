"""Speculative execution: Hadoop-default and LATE policies.

LATE (Zaharia et al., OSDI'08 — the paper's [12], which YARN implements):
when a container is free and no regular work remains, estimate each running
task's time-to-completion from its progress rate and back up the one with
the *longest* estimated finish, provided its progress rate is below the
SlowTaskThreshold percentile and the number of live speculative copies is
under SpeculativeCap.

Hadoop default: back up tasks whose progress lags the average by 20% after
a minimum age.

Whichever copy finishes first wins; the loser is killed and its record is
marked ``killed`` (wasted work — one of the costs Fig. 8's "No Speculation"
variant avoids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    late: bool = True  # False = Hadoop-default lag rule
    speculative_cap_frac: float = 0.1  # of cluster slots
    slow_task_percentile: float = 25.0  # LATE SlowTaskThreshold
    min_age_s: float = 30.0  # don't judge brand-new tasks
    max_progress: float = 0.9  # nearly-done tasks aren't worth backing up
    lag_threshold: float = 0.2  # Hadoop default: avg progress - 20%


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

    def has_live_copies(self) -> bool:
        """True while any backup copy is in flight."""
        return bool(self.live_backups())

    def _cap(self) -> int:
        return max(1, int(self.config.speculative_cap_frac * self.am.cluster.total_slots))

    def _fresh_copy_estimate_s(self) -> float:
        """Expected runtime of a re-execution, from completed map attempts.

        Hadoop only backs up a task whose estimated remaining time exceeds
        what a fresh copy would need — re-running from scratch is otherwise
        pure waste.  Falls back to infinity before any map has completed
        (nothing to estimate from, and first-wave speculation is premature).
        """
        done = [
            r
            for r in self.am.trace.records
            if r.kind == "map" and not r.killed and r.runtime > 0
        ]
        if not done:
            return math.inf
        return sum(r.runtime for r in done) / len(done)

    def _candidates(self) -> list[TaskAttempt]:
        cfg = self.config
        fresh = self._fresh_copy_estimate_s()
        out = []
        for attempt in self.am.maps.running:
            if attempt.record.speculative:
                continue
            if attempt.task_id in self.speculated_tasks:
                continue
            if attempt.elapsed() < cfg.min_age_s:
                continue
            if attempt.progress() >= cfg.max_progress:
                continue
            if attempt.est_time_left() <= fresh:
                continue
            out.append(attempt)
        return out

    def select_speculative(self, container: Container) -> MapAssignment | None:
        """Pick a straggler to back up on the offered container."""
        cfg = self.config
        if not cfg.enabled or len(self.live_backups()) >= self._cap():
            return None
        candidates = self._candidates()
        if not candidates:
            return None
        if cfg.late:
            victim = self._pick_late(candidates)
        else:
            victim = self._pick_default(candidates)
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

    def _pick_default(self, candidates: list[TaskAttempt]) -> TaskAttempt | None:
        all_progress = [a.progress() for a in self.am.maps.running]
        mean = float(np.mean(all_progress)) if all_progress else 0.0
        laggards = [
            a for a in candidates if a.progress() < mean - self.config.lag_threshold
        ]
        if not laggards:
            return None
        return min(laggards, key=lambda a: (a.progress(), a.task_id))

    # ------------------------------------------------------------------
    def _find_copies(self, task_id: str) -> list[TaskAttempt]:
        return [a for a in self.am.maps.running if a.task_id == task_id]

    def on_map_complete(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        """First copy home wins: kill the remaining copies of the task."""
        if attempt.task_id not in self.speculated_tasks:
            return
        for copy in self._find_copies(attempt.task_id):
            if copy is attempt or copy.finished or copy.killed:
                continue
            container = self.am.maps.containers.get(copy)
            copy.kill()
            if container is not None:
                self.am.maps.finalize_killed(copy, container)

    def on_tick(self) -> None:
        """Keep the last wave alive: poke the RM so idle slots get offered
        for speculation even though no regular work remains."""
        index = getattr(self.am, "index", None)
        if (
            self.config.enabled
            and not self.am.maps.done()
            and index is not None
            and index.unprocessed == 0
        ):
            # Last wave: keep poking the RM so free slots get offered for
            # speculation even though no regular work remains.
            self.am.rm.request_offers()
