"""Job driver: one simulated job on one cluster under one engine.

Home of :func:`run_job` — the single-job entry point used by the CLI, the
experiment runner, the correctness harness, and the multi-job service's
isolated baselines.  Lives in :mod:`repro.engines` (not
``repro.experiments``) so every layer above the engines can drive a job
without importing the experiment layer.

Runs with the same seed are bit-identical; engines under the same seed see
the same cluster, interference schedule, and record skew.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.failures import FailureSchedule
from repro.cluster.topology import Cluster
from repro.engines.base import AMConfig, ApplicationMaster
from repro.engines.registry import EngineSpec, resolve_engine
from repro.hdfs.namenode import NameNode
from repro.hdfs.placement import PlacementPolicy, RandomPlacement
from repro.mapreduce.job import JobSpec
from repro.metrics.efficiency import job_efficiency
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.yarn.resource_manager import ResourceManager


@dataclass
class RunResult:
    """Outcome of one job run with the headline metrics precomputed."""

    engine: str
    cluster_name: str
    job: JobSpec
    trace: JobTrace
    am: ApplicationMaster | None  # None when shipped across processes
    jct: float
    efficiency: float
    seed: int
    metrics: dict = field(default_factory=dict)  # obs snapshot, {} when off

    def summary(self) -> str:
        """One-line human-readable result summary."""
        return (
            f"{self.engine:>16s} on {self.cluster_name:<16s} "
            f"{self.job.name:<4s} JCT={self.jct:8.1f}s eff={self.efficiency:5.3f}"
        )


def run_job(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engine: str | EngineSpec,
    seed: int = 0,
    input_mb: float | None = None,
    small: bool = True,
    replication: int = 3,
    placement: PlacementPolicy | None = None,
    am_config: AMConfig | None = None,
    max_events: int | None = None,
    failures: "FailureSchedule | None" = None,
    obs: Observability | None = None,
    check=None,
) -> RunResult:
    """Simulate one job end-to-end and return its trace + metrics.

    ``failures`` optionally injects node crashes (see
    :mod:`repro.cluster.failures`); the engine re-enqueues lost work.
    ``obs`` threads a structured tracing/metrics bundle through the
    simulator and the AM; the per-run metric snapshot lands in
    :attr:`RunResult.metrics`.  ``check`` arms a
    :class:`repro.check.InvariantChecker` on the run (the caller
    finalizes it); like ``obs``, a run without one pays nothing.
    """
    spec = resolve_engine(engine)
    sim = Simulator(obs=obs)
    streams = RandomStreams(seed)
    cluster = cluster_factory()
    cluster.install(sim, streams)

    if isinstance(workload, WorkloadSpec):
        job = workload.job(input_mb=input_mb, small=small)
    else:
        job = workload if input_mb is None else workload.scaled(input_mb)

    namenode = NameNode(
        [n.node_id for n in cluster.nodes],
        replication=replication,
        policy=placement or RandomPlacement(),
        rng=streams.stream("placement"),
    )
    num_blocks = int(np.ceil(job.input_mb / spec.block_size_mb))
    if isinstance(workload, WorkloadSpec):
        factors = workload.cost_factors(num_blocks, streams.stream("skew"))
    else:
        factors = None
    namenode.create_file(
        job.input_file, job.input_mb, spec.block_size_mb, cost_factors=factors
    )

    rm = ResourceManager(sim, cluster, rng=streams.stream("rm-offers"))
    if check is not None:
        check.arm(sim, cluster=cluster, rm=rm)
    config = am_config or AMConfig(block_size_mb=spec.block_size_mb)
    if obs is not None and config.obs is None:
        config = dataclasses.replace(config, obs=obs)
    if obs is not None:
        obs.trace.emit(
            "run_meta", sim.now,
            engine=spec.name, cluster=cluster.name, job=job.name, seed=seed,
        )
    am = spec.build(sim, cluster, rm, namenode, job, streams, config)
    if failures is not None:
        failures.install(sim, cluster, rm)
    trace = am.run_to_completion(max_events=max_events)

    return RunResult(
        engine=spec.name,
        cluster_name=cluster.name,
        job=job,
        trace=trace,
        am=am,
        jct=trace.jct,
        efficiency=job_efficiency(trace, cluster.total_slots),
        seed=seed,
        metrics=obs.metrics.snapshot() if obs is not None else {},
    )


def compare_engines(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engines: list[str],
    seed: int = 0,
    **kwargs,
) -> dict[str, RunResult]:
    """Run the same job under several engines with a shared seed."""
    return {
        name: run_job(cluster_factory, workload, name, seed=seed, **kwargs)
        for name in engines
    }
