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
candidate with the longest estimated time left).  Its thresholds are the
module constants below; an engine only switches speculation on or off.
The scan is one pass: it reads the clock once and each running attempt's
progress once, and hands each straggler on with the progress rate and time
left it computed (the float operations of
:meth:`~repro.mapreduce.attempt.TaskAttempt.progress_rate` and
:meth:`~repro.mapreduce.attempt.TaskAttempt.est_time_left`), so the picks
recompute nothing.  The SlowTaskThreshold is
:func:`repro.metrics.stats.percentile`, the repo's one percentile rule.

Whichever copy finishes first wins: the AM's
:meth:`~repro.engines.base.ApplicationMaster.first_copy_wins` kills the
loser, whose record is marked ``killed`` (wasted work — one of the costs
Fig. 8's "No Speculation" variant avoids).  The AM's heartbeat keeps
offer rounds coming in the last map wave so idle slots reach the scan.

Neither scan looks at the offered node: at one instant the pick depends
only on the AM's running set, the speculated ids, the completed runtimes
and each attempt's progress.  So once a scan is all an AM has left, the
ResourceManager stops offering it slots for the rest of a round after its
first decline (see
:meth:`repro.engines.base.ApplicationMaster.declines_every_node`), and the
fresh-copy estimate is the mean of the completed runtimes the
:class:`~repro.engines.base.TraceRecorder` keeps per kind, recomputed only
when a runtime was added.

While a :class:`repro.check.InvariantChecker` is armed (the AM's
``recorder.check``), the fresh-copy estimate is compared with a scan of the
whole trace, and the RM re-offers every slot the closure skipped, which
the scan must decline.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from repro.engines.base import MapAssignment
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.split import InputSplit
from repro.metrics.stats import percentile
from repro.yarn.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster
    from repro.sim.trace import TaskRecord


#: LATE's SlowTaskThreshold: only tasks whose progress rate is at or
#: below this percentile of the candidates' rates are backed up.
SLOW_TASK_PERCENTILE = 25.0
#: LATE's SpeculativeCap: live map backups, as a fraction of cluster slots.
SPECULATIVE_CAP_FRAC = 0.1
#: Brand-new attempts are not judged.
MIN_AGE_S = 30.0
#: Nearly-done attempts are not worth backing up.
MAX_PROGRESS = 0.9

#: A straggler with the progress rate and estimated time left its scan
#: computed.
Straggler = tuple[TaskAttempt, float, float]


class SpeculationManager:
    """LATE backups for one AM; ``enabled`` False keeps only the straggler
    rule and the fresh-copy estimate (for engines that mitigate
    otherwise)."""

    def __init__(self, am: "ApplicationMaster", enabled: bool = True) -> None:
        self.am = am
        self.enabled = enabled
        # Live-backup cap: node slot counts never change.
        self._cap = max(1, int(SPECULATIVE_CAP_FRAC * am.cluster.total_slots))
        # kind -> (completed runtimes averaged, their mean)
        self._fresh: dict[str, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def _at_cap(self) -> bool:
        """Whether the running speculative map copies reach the cap; the
        count stops there."""
        live = 0
        for a in self.am.maps.running:
            if a.record.speculative:
                live += 1
                if live >= self._cap:
                    return True
        return False

    def _fresh_copy_estimate_s(self, kind: str) -> float:
        """Expected runtime of a re-execution, from completed attempts of
        ``kind`` ("map" or "reduce").

        Hadoop only backs up a task whose estimated remaining time exceeds
        what a fresh copy would need — re-running from scratch is otherwise
        pure waste.  Falls back to infinity before any attempt of the kind
        has completed (nothing to estimate from, and first-wave speculation
        is premature).
        """
        recorder = self.am.recorder
        runtimes = recorder.completed_runtimes[kind]
        cached = self._fresh.get(kind)
        if cached is None or cached[0] != len(runtimes):
            mean = sum(runtimes) / len(runtimes) if runtimes else math.inf
            cached = self._fresh[kind] = (len(runtimes), mean)
        if recorder.check is not None:
            recorder.check.incremental_state(
                f"{kind} fresh-copy estimate",
                cached[1],
                fresh_copy_estimate_from_records(recorder.trace.records, kind),
            )
        return cached[1]

    def stragglers(
        self, running: Iterable[TaskAttempt], kind: str, speculated: set[str]
    ) -> list[Straggler]:
        """Original copies among ``running`` worth backing up, each as
        ``(attempt, progress rate, estimated time left)``.

        A straggler has run at least :data:`MIN_AGE_S`, is below
        :data:`MAX_PROGRESS`, has no backup yet (its task id is not in
        ``speculated``), and would take longer to finish than a fresh copy
        of its ``kind``.  Before a ``kind`` attempt has completed the
        estimate is infinite, which no attempt's time left exceeds.
        """
        fresh = self._fresh_copy_estimate_s(kind)
        if fresh == math.inf:
            return []
        now = self.am.sim.now
        found = []
        for a in running:
            record = a.record
            if record.speculative or a.task_id in speculated:
                continue
            elapsed = now - record.start
            if elapsed < MIN_AGE_S:
                continue
            progress = a.progress()
            if progress >= MAX_PROGRESS:
                continue
            rate = progress / elapsed if elapsed > 0 else 0.0
            left = (1.0 - progress) / rate if rate > 0 else math.inf
            if left > fresh:
                found.append((a, rate, left))
        return found

    def select_speculative(self, container: Container) -> MapAssignment | None:
        """Pick a straggler to back up on the offered container."""
        if not self.enabled or self._at_cap():
            return None
        maps = self.am.maps
        candidates = self.stragglers(maps.running, "map", maps.speculated_ids)
        if not candidates:
            return None
        victim = self._pick_late(candidates)
        if victim is None:
            return None
        # Re-read the victim's blocks on the new node; locality recomputed.
        blocks = maps.running[victim].split.blocks
        assignment = MapAssignment(
            task_id=victim.task_id,
            split=InputSplit.for_node(blocks, container.node_id),
            wave=maps.running[victim].wave,
            speculative=True,
        )
        maps.speculated_ids.add(victim.task_id)
        return assignment

    def _pick_late(self, candidates: list[Straggler]) -> TaskAttempt | None:
        threshold = percentile([rate for _, rate, _ in candidates], SLOW_TASK_PERCENTILE)
        slow = [c for c in candidates if c[1] <= threshold]
        if not slow:
            return None
        return self.longest_left(slow)

    @staticmethod
    def longest_left(candidates: list[Straggler]) -> TaskAttempt:
        """LATE's victim: the straggler with the longest estimated time
        left, the larger task id on a tie."""
        return max(candidates, key=lambda c: (c[2], c[0].task_id))[0]


def fresh_copy_estimate_from_records(records: Iterable["TaskRecord"], kind: str) -> float:
    """The fresh-copy estimate recomputed by scanning a whole trace: the
    mean runtime of the non-killed ``kind`` attempts with positive runtime,
    or infinity before there is one."""
    done = [r for r in records if r.kind == kind and not r.killed and r.runtime > 0]
    if not done:
        return math.inf
    return sum(r.runtime for r in done) / len(done)
