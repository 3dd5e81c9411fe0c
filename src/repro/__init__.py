"""repro — reproduction of FlexMap (Chen, Rao, Zhou; IPDPS 2017).

Elastic map tasks for heterogeneous MapReduce clusters, built on a
discrete-event YARN/MapReduce simulator.

Quickstart::

    from repro import run_job, physical_cluster, puma

    result = run_job(physical_cluster, puma("WC"), "flexmap", seed=1)
    print(result.jct, result.efficiency)

Public surface: the engine registry and all engines
(:mod:`repro.engines`), the experiment harness and cluster builders
(:mod:`repro.experiments`), the FlexMap components (:mod:`repro.core`),
the PUMA workloads (:mod:`repro.workloads`) and the metrics
(:mod:`repro.metrics`).
"""

from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.engines import (
    ENGINES,
    FlexMapAM,
    RunResult,
    SkewTuneAM,
    StockHadoopAM,
    compare_engines,
    register_engine,
    resolve_engine,
    run_job,
)
from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    three_node_example,
    virtual_cluster,
)
from repro.experiments.iterative import IterativeResult, run_iterative_job
from repro.mapreduce.job import JobSpec
from repro.metrics.efficiency import job_efficiency
from repro.workloads.puma import PUMA_BENCHMARKS, puma

__version__ = "1.0.0"

__all__ = [
    "ENGINES",
    "FailureSchedule",
    "FlexMapAM",
    "IterativeResult",
    "NodeFailure",
    "JobSpec",
    "PUMA_BENCHMARKS",
    "RunResult",
    "SkewTuneAM",
    "StockHadoopAM",
    "compare_engines",
    "heterogeneous6_cluster",
    "homogeneous_cluster",
    "job_efficiency",
    "multitenant_cluster",
    "physical_cluster",
    "puma",
    "register_engine",
    "resolve_engine",
    "run_iterative_job",
    "run_job",
    "three_node_example",
    "virtual_cluster",
    "__version__",
]
