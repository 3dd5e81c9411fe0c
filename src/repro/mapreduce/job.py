"""Job specification: input size and per-phase cost model.

Costs are expressed in *seconds per MB on a speed-1.0 node* (the slowest
machine model), so a node of effective speed ``s`` processes
``map_cost_s_per_mb`` MB-seconds of map work ``s`` times faster.  The
``shuffle_ratio`` is intermediate-data volume over input volume — the knob
that separates map-heavy jobs (wordcount, grep, histogram-*) from
reduce-heavy ones (inverted-index, tera-sort), which the paper's Fig. 5/6
discussion leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class JobSpec:
    """One MapReduce job to run on the simulated cluster."""

    name: str
    input_mb: float
    map_cost_s_per_mb: float = 1.25
    shuffle_ratio: float = 0.1
    reduce_cost_s_per_mb: float = 1.0
    num_reducers: int = 8
    input_file: str = "input"

    def __post_init__(self) -> None:
        if self.input_mb <= 0:
            raise ValueError(f"non-positive input: {self.input_mb}")
        if self.map_cost_s_per_mb <= 0:
            raise ValueError(f"non-positive map cost: {self.map_cost_s_per_mb}")
        if self.shuffle_ratio < 0:
            raise ValueError(f"negative shuffle ratio: {self.shuffle_ratio}")
        if self.reduce_cost_s_per_mb < 0:
            raise ValueError(f"negative reduce cost: {self.reduce_cost_s_per_mb}")
        if self.num_reducers < 0:
            raise ValueError(f"negative reducer count: {self.num_reducers}")

    @property
    def map_only(self) -> bool:
        return self.num_reducers == 0 or self.shuffle_ratio == 0.0

    def scaled(self, input_mb: float) -> "JobSpec":
        """Same job shape on a different input size."""
        return replace(self, input_mb=input_mb)
