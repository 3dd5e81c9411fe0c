"""Workload specification: one PUMA benchmark's cost model + Table II sizes.

A workload renders into a :class:`~repro.mapreduce.job.JobSpec` at a chosen
input scale, plus per-block cost factors from its skew model.  Costs are
calibrated relative to wordcount (1.25 s/MB of map compute on the slowest
machine) using the paper's map-heavy / reduce-heavy characterization: 30% of
production jobs are map-only and another 40% shuffle only ~10% of their
input (§IV-G), while inverted-index and tera-sort are reduce-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapreduce.job import JobSpec
from repro.workloads.skew import LognormalSkew, NoSkew, SkewModel


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark row of Table II plus its simulator cost model."""

    name: str
    abbrev: str
    small_gb: float  # Table II small input (12/20-node clusters)
    large_gb: float  # Table II large input (40-node cluster)
    data_source: str  # Wikipedia | Netflix | TeraGen
    map_cost_s_per_mb: float
    shuffle_ratio: float
    reduce_cost_s_per_mb: float
    num_reducers: int
    skew_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.small_gb <= 0 or self.large_gb <= 0:
            raise ValueError("input sizes must be positive")

    # ------------------------------------------------------------------
    @property
    def map_heavy(self) -> bool:
        """Shuffle volume <= 10% of input — the paper's map-heavy class."""
        return self.shuffle_ratio <= 0.1

    def skew_model(self) -> SkewModel:
        """This workload's record-skew model."""
        if self.skew_sigma == 0:
            return NoSkew()
        return LognormalSkew(self.skew_sigma)

    def job(self, input_mb: float | None = None) -> JobSpec:
        """Render a JobSpec at ``input_mb`` (default: Table II's small input)."""
        if input_mb is None:
            input_mb = self.small_gb * 1024.0
        return JobSpec(
            name=self.abbrev,
            input_mb=input_mb,
            map_cost_s_per_mb=self.map_cost_s_per_mb,
            shuffle_ratio=self.shuffle_ratio,
            reduce_cost_s_per_mb=self.reduce_cost_s_per_mb,
            num_reducers=self.num_reducers,
            input_file=f"{self.abbrev}-input",
        )

    def cost_factors(self, num_blocks: int, rng: np.random.Generator) -> np.ndarray:
        """Per-block cost factors drawn from the skew model."""
        return self.skew_model().factors(num_blocks, rng)
