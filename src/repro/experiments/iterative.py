"""Iterative (Spark-style) workloads — the paper's §IV-G extensibility claim.

Spark tasks form their processing data mostly from local input blocks
(the paper measured <5% shuffled in ML apps), so an iterative job is
modelled as N successive map-dominated phases over the same cached input on
one live cluster (interference keeps evolving across iterations).  The
paper argues stragglers are *exacerbated* across iterations for stock
engines, while FlexMap's elastic sizing applies directly — and, because the
SpeedMonitor/DynamicSizer state can be carried over, later iterations skip
the sizing ramp entirely (warm start).

The run is one :class:`~repro.engines.driver.Testbed` with a fresh
ResourceManager per iteration; every RM draws from the testbed's one
``rm-offers`` stream, so a finished iteration's trailing offer round still
consumes its shuffle on the old RM.  Any FlexMap engine (a
:class:`~repro.engines.flexmap.FlexMapAM` subclass included) gets the warm
start through ``spec.build(extra=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.cluster.topology import Cluster
from repro.engines.driver import Testbed, as_job
from repro.engines.flexmap import is_flexmap
from repro.engines.registry import EngineSpec, resolve_engine
from repro.mapreduce.job import JobSpec
from repro.sim.trace import JobTrace
from repro.workloads.spec import WorkloadSpec
from repro.yarn.resource_manager import ResourceManager


@dataclass
class IterativeResult:
    """Per-iteration outcomes of one iterative run."""

    engine: str
    iteration_jcts: list[float] = field(default_factory=list)
    traces: list[JobTrace] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return float(sum(self.iteration_jcts))

    def ramp_ratio(self) -> float:
        """First-iteration time over mean of the remaining iterations —
        the warm-start payoff is this ratio exceeding 1 for FlexMap."""
        if len(self.iteration_jcts) < 2:
            return 1.0
        rest = float(np.mean(self.iteration_jcts[1:]))
        return self.iteration_jcts[0] / rest if rest > 0 else 1.0


def run_iterative_job(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engine: str | EngineSpec,
    iterations: int = 5,
    seed: int = 0,
    input_mb: float | None = None,
    warm_start: bool = True,
) -> IterativeResult:
    """Run ``iterations`` map-dominated phases over the same cached input.

    The cluster (and its interference process) lives across iterations.
    For FlexMap engines with ``warm_start``, the SpeedMonitor and
    DynamicSizer persist between iterations.
    """
    if iterations < 1:
        raise ValueError(f"need at least one iteration: {iterations}")
    spec = resolve_engine(engine)
    bed = Testbed(cluster_factory, seed=seed)
    base_job = as_job(workload, input_mb)
    # Iterations are map-dominated: per-iteration shuffle is tiny (§IV-G).
    job = replace(
        base_job,
        name=f"{base_job.name}-iter",
        shuffle_ratio=min(base_job.shuffle_ratio, 0.05),
        num_reducers=min(base_job.num_reducers, 4),
    )
    bed.stage(job, spec.block_size_mb, workload)

    result = IterativeResult(engine=spec.name)
    carry = warm_start and is_flexmap(spec)
    extra: dict | None = None
    rm = bed.rm
    for i in range(iterations):
        if i:
            rm = ResourceManager(bed.sim, bed.cluster, rng=bed.streams.stream("rm-offers"))
        am = spec.build(
            bed.sim, bed.cluster, rm, bed.namenode, job, bed.streams, extra=extra
        )
        trace = am.run_to_completion()
        result.iteration_jcts.append(trace.jct)
        result.traces.append(trace)
        if carry:
            extra = {"monitor": am.monitor, "sizer": am.sizer}
    return result
