"""The run substrate and the single-job driver.

:class:`Testbed` is the paper's evaluation substrate: a heterogeneous
cluster, HDFS with 3-way replication and a YARN ResourceManager on one
Simulator and one seeded stream family.  Three drivers build on it:
:func:`run_job` (single jobs), :class:`repro.multijob.ClusterService`
(many tenants; a subclass) and
:func:`repro.experiments.iterative.run_iterative_job` (Spark-style
iterations).  It lives in :mod:`repro.engines` so every layer above the
engines can drive a job without importing the experiment layer.

Runs with the same seed are bit-identical; engines under the same seed see
the same cluster, interference schedule, and record skew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.failures import FailureSchedule
from repro.cluster.topology import Cluster
from repro.engines.base import ApplicationMaster
from repro.engines.registry import EngineSpec, resolve_engine
from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import JobSpec
from repro.metrics.efficiency import job_efficiency
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.yarn.resource_manager import ResourceManager


class Testbed:
    """One simulated cluster: Simulator, streams, cluster, HDFS and YARN.

    The cluster's interference process is installed on construction; the
    NameNode places replicas at random from the ``placement`` stream and the
    ResourceManager shuffles each offer round from the ``rm-offers``
    stream, under the optional cluster ``scheduler`` policy.  ``check``
    arms a :class:`repro.check.InvariantChecker` and ``failures`` installs
    a crash schedule (each crash fans out to every AM registered at crash
    time); both are off by default and cost nothing when absent.
    """

    def __init__(
        self,
        cluster_factory: Callable[[], Cluster],
        seed: int = 0,
        replication: int = 3,
        scheduler=None,
        obs: Observability | None = None,
        failures: FailureSchedule | None = None,
        check=None,
    ) -> None:
        self.seed = seed
        self.sim = Simulator(obs=obs)
        self.streams = RandomStreams(seed)
        self.cluster = cluster_factory()
        self.cluster.install(self.sim, self.streams)
        self.namenode = NameNode(
            [n.node_id for n in self.cluster.nodes],
            replication=replication,
            rng=self.streams.stream("placement"),
        )
        self.rm = ResourceManager(
            self.sim,
            self.cluster,
            rng=self.streams.stream("rm-offers"),
            scheduler=scheduler,
        )
        if check is not None:
            check.arm(self.sim, cluster=self.cluster, rm=self.rm)
        # No AM constructor schedules an event, so crashes installed before
        # any AM is built keep their heap order.
        if failures is not None:
            failures.install(self.sim, self.cluster, self.rm)

    def stage(
        self,
        job: JobSpec,
        block_size_mb: float,
        workload: WorkloadSpec | JobSpec,
        streams: RandomStreams | None = None,
    ) -> None:
        """Create ``job``'s input file in HDFS.

        A :class:`WorkloadSpec` gives each block a skew cost factor drawn
        from the ``skew`` stream of ``streams`` (default: the testbed's
        own); a bare :class:`JobSpec` has uniform blocks.
        """
        factors = None
        if isinstance(workload, WorkloadSpec):
            num_blocks = int(math.ceil(job.input_mb / block_size_mb))
            skew = (streams or self.streams).stream("skew")
            factors = workload.cost_factors(num_blocks, skew)
        self.namenode.create_file(
            job.input_file, job.input_mb, block_size_mb, cost_factors=factors
        )


def as_job(workload: WorkloadSpec | JobSpec, input_mb: float | None = None) -> JobSpec:
    """The JobSpec of ``workload`` at ``input_mb`` (default: its own size;
    Table II's small input for a :class:`WorkloadSpec`)."""
    if isinstance(workload, WorkloadSpec):
        return workload.job(input_mb=input_mb)
    return workload if input_mb is None else workload.scaled(input_mb)


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
    replication: int = 3,
    max_events: int | None = None,
    failures: "FailureSchedule | None" = None,
    obs: Observability | None = None,
    check=None,
) -> RunResult:
    """Simulate one job end-to-end and return its trace + metrics.

    ``failures`` optionally injects node crashes (see
    :mod:`repro.cluster.failures`); the engine re-enqueues lost work.
    ``obs`` is the simulator's structured tracing/metrics bundle, which
    the AM observes through; the per-run metric snapshot lands in
    :attr:`RunResult.metrics`.  ``check`` arms a
    :class:`repro.check.InvariantChecker` on the run (the caller
    finalizes it); like ``obs``, a run without one pays nothing.
    """
    spec = resolve_engine(engine)
    bed = Testbed(
        cluster_factory, seed=seed, replication=replication,
        obs=obs, failures=failures, check=check,
    )
    job = as_job(workload, input_mb)
    bed.stage(job, spec.block_size_mb, workload)
    if obs is not None:
        obs.trace.emit(
            "run_meta", bed.sim.now,
            engine=spec.name, cluster=bed.cluster.name, job=job.name, seed=seed,
        )
    am = spec.build(bed.sim, bed.cluster, bed.rm, bed.namenode, job, bed.streams)
    trace = am.run_to_completion(max_events=max_events)

    return RunResult(
        engine=spec.name,
        cluster_name=bed.cluster.name,
        job=job,
        trace=trace,
        am=am,
        jct=trace.jct,
        efficiency=job_efficiency(trace, bed.cluster.total_slots),
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
