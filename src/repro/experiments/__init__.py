"""Experiment harness: evaluation clusters, seed sweeps, figure drivers.

Jobs are driven by :func:`repro.engines.run_job`; the engine registry
lives in :mod:`repro.engines`.
"""

from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    three_node_example,
    virtual_cluster,
)
from repro.experiments.iterative import IterativeResult, run_iterative_job
from repro.experiments.stats import SweepResult, compare_sweep, seed_sweep

__all__ = [
    "IterativeResult",
    "SweepResult",
    "compare_sweep",
    "run_iterative_job",
    "seed_sweep",
    "heterogeneous6_cluster",
    "homogeneous_cluster",
    "multitenant_cluster",
    "physical_cluster",
    "three_node_example",
    "virtual_cluster",
]
