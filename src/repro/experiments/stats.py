"""Multi-seed experiment statistics.

Single runs of a stochastic cluster are noisy (pressure episodes and
interference schedules are heavy-tailed), so quantitative claims should be
made over seed sweeps.  ``seed_sweep`` runs one configuration across seeds
and returns summary statistics; ``compare_sweep`` does it for several
engines and reports normalized means with spread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.topology import Cluster
from repro.engines import EngineSpec, RunResult, run_job
from repro.mapreduce.job import JobSpec
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class SweepStats:
    """Summary of one metric over a seed sweep."""

    mean: float
    std: float
    lo: float  # min observed
    hi: float  # max observed
    n: int

    @classmethod
    def of(cls, values: list[float]) -> "SweepStats":
        if not values:
            raise ValueError("no values")
        arr = np.asarray(values, dtype=float)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std()),
            lo=float(arr.min()),
            hi=float(arr.max()),
            n=len(values),
        )

    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if self.n < 2:
            return float("inf")
        return 1.96 * self.std / np.sqrt(self.n)


@dataclass
class SweepResult:
    """Per-seed results plus jct/efficiency summaries."""

    engine: str
    runs: list[RunResult]
    jct: SweepStats
    efficiency: SweepStats


def _sweep_worker(payload: tuple) -> RunResult:
    """Run one seed in a worker process (module-level for pickling).

    The returned result drops the live ApplicationMaster handle — it holds
    simulator internals (pending-event closures) that cannot cross the
    process boundary; every metric consumed by sweep statistics lives in
    the trace and the precomputed fields.
    """
    cluster_factory, workload, engine, seed, kwargs = payload
    result = run_job(cluster_factory, workload, engine, seed=seed, **kwargs)
    return dataclasses.replace(result, am=None)


def seed_sweep(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engine: str | EngineSpec,
    seeds: list[int],
    jobs: int = 1,
    **kwargs,
) -> SweepResult:
    """Run one (cluster, workload, engine) configuration across seeds.

    ``jobs`` > 1 fans the seeds out over a ``ProcessPoolExecutor``.  Every
    seed's simulation is self-contained, so results are merged back in seed
    order and the summary statistics are identical for any ``jobs`` value;
    the serial default additionally keeps the per-run ``am`` handle (and
    accepts unpicklable cluster factories such as lambdas).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if jobs == 1:
        runs = [
            run_job(cluster_factory, workload, engine, seed=s, **kwargs)
            for s in seeds
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        payloads = [(cluster_factory, workload, engine, s, kwargs) for s in seeds]
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
            # executor.map preserves input order: merged in seed order.
            runs = list(pool.map(_sweep_worker, payloads))
    return SweepResult(
        engine=runs[0].engine,
        runs=runs,
        jct=SweepStats.of([r.jct for r in runs]),
        efficiency=SweepStats.of([r.efficiency for r in runs]),
    )


def compare_sweep(
    cluster_factory: Callable[[], Cluster],
    workload: WorkloadSpec | JobSpec,
    engines: list[str],
    seeds: list[int],
    baseline: str | None = None,
    **kwargs,
) -> dict[str, dict[str, float]]:
    """Mean JCT/efficiency per engine, normalized to ``baseline``'s mean."""
    sweeps = {
        e: seed_sweep(cluster_factory, workload, e, seeds, **kwargs) for e in engines
    }
    base = sweeps[baseline].jct.mean if baseline else next(iter(sweeps.values())).jct.mean
    return {
        e: {
            "jct_mean": s.jct.mean,
            "jct_std": s.jct.std,
            "jct_normalized": s.jct.mean / base,
            "efficiency_mean": s.efficiency.mean,
            "ci95": s.jct.ci95_halfwidth(),
        }
        for e, s in sweeps.items()
    }
