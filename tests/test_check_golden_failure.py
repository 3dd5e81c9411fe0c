"""Golden-trace regression for the failure and speculation code paths.

``test_golden_trace.py`` pins the happy path; these goldens pin the two
recovery paths the correctness harness exercises most: a FlexMap run that
loses a node mid-map (re-enqueued BUs must be re-executed exactly once)
and a stock-Hadoop run where a speculative backup rescues a straggling
original.  Byte-identity means a refactor cannot silently reorder the
failure-recovery or speculation event streams.
"""

import json
from pathlib import Path

from repro.cluster.failures import FailureSchedule
from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.obs import JsonlTraceEmitter, Observability
from repro.workloads.puma import puma
from tests.conftest import make_cluster, tiny_job

GOLDEN_DIR = Path(__file__).parent / "data"

FAILURE_GOLDEN = "golden_failure_flexmap.jsonl"
SPECULATION_GOLDEN = "golden_speculation_hadoop64.jsonl"


def _run_failure_traced(out_path: Path):
    with Observability(trace=JsonlTraceEmitter(out_path)) as obs:
        return run_job(
            heterogeneous6_cluster,
            puma("WC"),
            "flexmap",
            seed=3,
            input_mb=512.0,
            failures=FailureSchedule.single(30.0, "x02"),
            obs=obs,
        )


def _run_speculation_traced(out_path: Path):
    with Observability(trace=JsonlTraceEmitter(out_path)) as obs:
        return run_job(
            lambda: make_cluster(speeds=(2.0, 2.0, 0.25), slots=2),
            tiny_job(input_mb=768.0, reducers=0),
            "hadoop-64",
            seed=5,
            obs=obs,
        )


def _events(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_failure_trace_matches_golden(tmp_path):
    fresh = tmp_path / FAILURE_GOLDEN
    _run_failure_traced(fresh)
    golden = GOLDEN_DIR / FAILURE_GOLDEN
    assert fresh.read_bytes() == golden.read_bytes(), (
        "FlexMap node-failure trace diverged from the golden; "
        "failure recovery must stay byte-identical"
    )


def test_failure_golden_contains_recovery_events():
    names = [e["ev"] for e in _events(GOLDEN_DIR / FAILURE_GOLDEN)]
    assert names.count("node_failure") == 1
    assert names.count("map_requeue") >= 1
    # Recovery happened *after* the crash, and the job still finished.
    assert names.index("node_failure") < names.index("map_requeue")
    assert names[-1] == "job_end"


def test_failure_run_conserves_bytes(tmp_path):
    result = _run_failure_traced(tmp_path / "trace.jsonl")
    assert abs(result.trace.data_processed_mb() - 512.0) < 1e-6


def test_speculation_trace_matches_golden(tmp_path):
    fresh = tmp_path / SPECULATION_GOLDEN
    _run_speculation_traced(fresh)
    golden = GOLDEN_DIR / SPECULATION_GOLDEN
    assert fresh.read_bytes() == golden.read_bytes(), (
        "hadoop-64 speculation trace diverged from the golden; "
        "speculative execution must stay byte-identical"
    )


def test_speculation_golden_contains_rescue():
    events = _events(GOLDEN_DIR / SPECULATION_GOLDEN)
    assert any(e["ev"] == "speculate" for e in events)


def test_speculation_backup_wins(tmp_path):
    result = _run_speculation_traced(tmp_path / "trace.jsonl")
    backups = {m.task_id for m in result.trace.records if m.speculative and not m.killed}
    killed_originals = {
        m.task_id for m in result.trace.records if m.killed and not m.speculative
    }
    # At least one task was rescued: its original was killed and its
    # speculative copy finished in its place.
    assert backups & killed_originals
    assert abs(result.trace.data_processed_mb() - 768.0) < 1e-6
