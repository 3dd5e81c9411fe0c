"""Golden-trace regression: traced runs are byte-identical to their goldens.

The single-job reference traces under ``tests/data/`` were captured before
the multi-job RM generalization.  A single registered AM must take exactly
the historical code path — same offer order, same sizing, same event
stream — so re-running the same configuration must reproduce the golden
JSONL files byte for byte.  Any diff here means a refactor changed
single-job behaviour, which the multi-job work explicitly promises not to
do.

The closed-loop service golden pins a multi-job stream: FlexMap jobs that
share one SpeedMonitor (two from t=0, a third arriving later) next to a
``hadoop-64`` job, so the monitor's round numbering and samples across AMs
are pinned too.
"""

from pathlib import Path

from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.multijob import ClosedLoopArrivals, ClusterService
from repro.obs import JsonlTraceEmitter, Observability
from repro.workloads.puma import puma

GOLDEN_DIR = Path(__file__).parent / "data"

GOLDENS = {
    "flexmap": "golden_single_flexmap.jsonl",
    "hadoop-64": "golden_single_hadoop64.jsonl",
}


def _run_traced(engine: str, out_path: Path) -> float:
    with Observability(trace=JsonlTraceEmitter(out_path)) as obs:
        result = run_job(
            heterogeneous6_cluster,
            puma("WC"),
            engine,
            seed=3,
            input_mb=512.0,
            obs=obs,
        )
    return result.jct


def test_single_job_traces_match_goldens(tmp_path):
    for engine, golden_name in GOLDENS.items():
        golden = GOLDEN_DIR / golden_name
        fresh = tmp_path / golden_name
        _run_traced(engine, fresh)
        assert fresh.read_bytes() == golden.read_bytes(), (
            f"{engine} single-job trace diverged from {golden_name}; "
            "single-job behaviour must stay byte-identical"
        )


def test_single_job_trace_is_stable_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    jct_a = _run_traced("flexmap", a)
    jct_b = _run_traced("flexmap", b)
    assert jct_a == jct_b
    assert a.read_bytes() == b.read_bytes()


def test_closed_loop_service_trace_matches_golden(tmp_path):
    golden = GOLDEN_DIR / "golden_serve_closed_loop.jsonl"
    fresh = tmp_path / golden.name
    arrivals = ClosedLoopArrivals(
        n_jobs=4, width=2, benchmarks=("WC",),
        engines=("flexmap", "flexmap", "hadoop-64"), input_mb=384.0,
    )
    with Observability(trace=JsonlTraceEmitter(fresh)) as obs:
        result = ClusterService(
            heterogeneous6_cluster, arrivals, policy="fair", seed=3, obs=obs
        ).run(compute_slowdown=False)
    assert [o.engine for o in result.outcomes].count("flexmap") == 3
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"the closed-loop service trace diverged from {golden.name}"
    )
