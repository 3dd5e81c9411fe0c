"""Experiment harness: evaluation clusters, engine registry, figure drivers."""

from repro.engines import ENGINES, EngineSpec, RunResult, run_job
from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    three_node_example,
    virtual_cluster,
)
from repro.experiments.iterative import IterativeResult, run_iterative_job
from repro.experiments.stats import SweepResult, SweepStats, compare_sweep, seed_sweep

__all__ = [
    "ENGINES",
    "EngineSpec",
    "IterativeResult",
    "RunResult",
    "SweepResult",
    "SweepStats",
    "compare_sweep",
    "run_iterative_job",
    "seed_sweep",
    "heterogeneous6_cluster",
    "homogeneous_cluster",
    "multitenant_cluster",
    "physical_cluster",
    "run_job",
    "three_node_example",
    "virtual_cluster",
]
