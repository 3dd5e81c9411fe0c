"""Task-lifecycle trace recording.

Every task execution (map, reduce, speculative copy, SkewTune mitigator)
appends a :class:`TaskRecord` to the job's :class:`JobTrace`.  All paper
metrics — job completion time, productivity (eq. 1), job efficiency
(eq. 2), per-task runtime distributions (Fig. 1, Fig. 3a) and the dynamic
sizing timelines (Fig. 7) — are computed from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TaskRecord:
    """One task attempt, from dispatch to completion or kill."""

    task_id: str
    kind: str  # "map" | "reduce"
    node: str
    size_mb: float
    start: float  # container start (includes startup overhead)
    end: float = float("nan")
    overhead: float = 0.0  # container allocation + JVM startup seconds
    effective: float = 0.0  # seconds spent in actual map/reduce computation
    wave: int = 0
    speculative: bool = False
    killed: bool = False  # lost the speculation race or stopped by SkewTune
    num_bus: int = 0  # block units in the split (FlexMap)
    local_mb: float = 0.0  # bytes read node-locally
    remote_mb: float = 0.0  # bytes read over the network
    processed_mb: float = 0.0  # input actually consumed (partial if stopped)

    @property
    def runtime(self) -> float:
        """Total wall-clock runtime of the attempt."""
        return self.end - self.start

    @property
    def productivity(self) -> float:
        """Paper eq. (1): effective runtime / total runtime."""
        total = self.runtime
        if total <= 0:
            return 0.0
        return self.effective / total


@dataclass
class JobTrace:
    """All task attempts of one job plus job-level milestones."""

    job_id: str = "job"
    records: list[TaskRecord] = field(default_factory=list)
    submit_time: float = 0.0
    finish_time: float = float("nan")
    map_phase_start: float = float("nan")
    map_phase_end: float = float("nan")

    def add(self, record: TaskRecord) -> None:
        """Append one task record."""
        self.records.append(record)

    # ------------------------------------------------------------------
    # selectors
    # ------------------------------------------------------------------
    def maps(self, include_killed: bool = False) -> list[TaskRecord]:
        """Map records, excluding killed copies unless requested."""
        return [
            r
            for r in self.records
            if r.kind == "map" and (include_killed or not r.killed)
        ]

    def reduces(self) -> list[TaskRecord]:
        """Reduce records, killed copies excluded."""
        return [r for r in self.records if r.kind == "reduce" and not r.killed]

    @property
    def jct(self) -> float:
        """Job completion time."""
        return self.finish_time - self.submit_time

    @property
    def map_phase_runtime(self) -> float:
        """Time between the first map container start and the last stop."""
        return self.map_phase_end - self.map_phase_start

    def map_runtimes(self) -> list[float]:
        """Wall-clock runtimes of successful map attempts (Fig. 1)."""
        return [r.runtime for r in self.maps()]

    def data_processed_mb(self) -> float:
        """Input MB actually consumed by map attempts.

        Uses ``processed_mb`` so attempts stopped early with committed
        partial output (SkewTune) count only what they read, and killed
        speculation losers count nothing.
        """
        return sum(r.processed_mb for r in self.maps())
