"""Engine-dispatch macro-benchmark for the engine registry.

Drives a 12-job burst (all submitted at t=0, engines named by string)
through the multi-job service, so every AM is built through
``resolve_engine``, and asserts:

* every job completes under the engine it was submitted with;
* registry dispatch (``resolve_engine`` string -> EngineSpec) stays cheap.

The record is written to ``BENCH_engine_dispatch.json`` at the repo root
(uploaded by CI) and mirrored as text under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_scale, save_result

from repro.engines.registry import EngineSpec, resolve_engine
from repro.experiments.clusters import heterogeneous6_cluster
from repro.multijob.arrivals import JobRequest, TraceArrivals
from repro.multijob.service import ClusterService, ServiceResult
from repro.workloads.puma import puma

BENCH_OUT = Path(__file__).parent.parent / "BENCH_engine_dispatch.json"

N_JOBS = 12
SEED = 7
ENGINES = ("hadoop-64", "flexmap")
BENCHMARKS = ("WC", "GR", "HR")
DISPATCH_LOOKUPS = 20_000


def _arrivals(input_mb: float) -> TraceArrivals:
    return TraceArrivals([
        JobRequest(
            submit_time=0.0,
            workload=puma(BENCHMARKS[i % len(BENCHMARKS)]),
            engine=ENGINES[i % len(ENGINES)],
            input_mb=input_mb,
        )
        for i in range(N_JOBS)
    ])


def _run_service(input_mb: float) -> tuple[ServiceResult, float]:
    service = ClusterService(
        heterogeneous6_cluster, _arrivals(input_mb), policy="fair", seed=SEED
    )
    start = time.perf_counter()
    result = service.run(compute_slowdown=False)
    return result, time.perf_counter() - start


def _time_dispatch() -> float:
    """Mean nanoseconds per registry dispatch (string -> EngineSpec)."""
    names = [ENGINES[i % len(ENGINES)] for i in range(DISPATCH_LOOKUPS)]
    start = time.perf_counter()
    for name in names:
        spec = resolve_engine(name)
    elapsed = time.perf_counter() - start
    assert isinstance(spec, EngineSpec)
    return elapsed / DISPATCH_LOOKUPS * 1e9


def test_engine_dispatch(benchmark):
    input_mb = 512.0 * bench_scale()

    result, wall = benchmark.pedantic(
        lambda: _run_service(input_mb), rounds=1, iterations=1
    )
    assert len(result.outcomes) == N_JOBS
    assert sorted(o.engine for o in result.outcomes) == sorted(
        ENGINES[i % len(ENGINES)] for i in range(N_JOBS)
    )

    dispatch_ns = _time_dispatch()
    assert dispatch_ns < 50_000, f"registry dispatch too slow: {dispatch_ns:.0f} ns"

    record = {
        "scenario": {
            "cluster": "heterogeneous6",
            "policy": "fair",
            "seed": SEED,
            "jobs": N_JOBS,
            "engines": list(ENGINES),
            "benchmarks": list(BENCHMARKS),
            "input_mb_per_job": input_mb,
        },
        "events_processed": result.events_processed,
        "makespan_s": round(max(o.finish_time for o in result.outcomes), 3),
        "mean_jct_s": round(
            sum(o.jct for o in result.outcomes) / len(result.outcomes), 3
        ),
        "wall_s": round(wall, 4),
        "dispatch_ns_per_lookup": round(dispatch_ns, 1),
        "dispatch_lookups": DISPATCH_LOOKUPS,
    }
    BENCH_OUT.write_text(json.dumps(record, indent=2) + "\n")

    save_result(
        "engine_dispatch",
        "Engine dispatch\n"
        f"  jobs={N_JOBS} input={input_mb:g}MB/job cluster=heterogeneous6 "
        f"policy=fair seed={SEED}\n"
        f"  heap events: {result.events_processed}\n"
        f"  makespan={record['makespan_s']:.0f}s mean JCT={record['mean_jct_s']:.0f}s\n"
        f"  registry dispatch: {dispatch_ns:.0f} ns/lookup",
    )
