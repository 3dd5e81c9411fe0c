"""Unit tests for the speculation policy logic (LATE and Hadoop-default)
and stock Hadoop's delay scheduling."""

import pytest

from repro.engines import EngineSpec, run_job
from repro.engines.speculation import SpeculationConfig
from repro.engines.stock import StockHadoopAM
from tests.conftest import make_cluster, tiny_job


def slow_cluster():
    return make_cluster(speeds=(2.0, 2.0, 0.2), slots=2)


def run_with(config: SpeculationConfig, seed=5, **job_kw):
    spec = EngineSpec("spec-test", 64.0, StockHadoopAM, {"speculation": config})
    job = tiny_job(input_mb=768.0, reducers=0, **job_kw)
    return run_job(slow_cluster, job, spec, seed=seed)


def test_late_speculates_slowest_first():
    r = run_with(SpeculationConfig(late=True))
    spec = [m for m in r.trace.records if m.kind == "map" and m.speculative]
    assert spec
    # Backups target work originally running on the slow node: the original
    # copies of speculated task ids ran on t02.
    spec_ids = {m.task_id for m in spec}
    originals = [
        m for m in r.trace.records
        if m.task_id in spec_ids and not m.speculative
    ]
    assert originals
    assert all(m.node == "t02" for m in originals)


def test_hadoop_default_policy_also_works():
    r = run_with(SpeculationConfig(late=False))
    assert r.trace.data_processed_mb() == pytest.approx(768.0)


def test_min_age_blocks_young_tasks():
    r = run_with(SpeculationConfig(min_age_s=1e9))
    assert not any(m.speculative for m in r.trace.records)


def test_max_progress_blocks_nearly_done():
    r = run_with(SpeculationConfig(max_progress=0.0))
    assert not any(m.speculative for m in r.trace.records)


def test_backup_loser_never_contributes_output():
    r = run_with(SpeculationConfig(late=True))
    for m in r.trace.records:
        if m.killed:
            assert m.processed_mb == 0.0


def test_speculation_counts_every_task_once():
    r = run_with(SpeculationConfig(late=True))
    finished = [m for m in r.trace.maps() if not m.task_id.startswith("st")]
    assert len({m.task_id for m in finished}) == len(finished)


# ---------------------------------------------------------------------------
# Delay scheduling (stock locality wait)
# ---------------------------------------------------------------------------
def test_delay_scheduling_defers_remote_dispatch():
    """With replication 1, a node without local blocks must wait out the
    locality delay before taking remote work."""
    spec_wait = EngineSpec(
        "delay-long", 64.0, StockHadoopAM,
        {"locality_delay_s": 1e9, "speculation": SpeculationConfig(enabled=False)},
    )
    spec_none = EngineSpec(
        "delay-zero", 64.0, StockHadoopAM,
        {"locality_delay_s": 0.0, "speculation": SpeculationConfig(enabled=False)},
    )

    def unbalanced():
        # One node stores everything (replication 1 + all blocks local to t00
        # via round-robin over a single-node namenode is impossible; instead
        # use 2 nodes and replication 1 so half the blocks are remote).
        return make_cluster(speeds=(1.0, 1.0), slots=2)

    job = tiny_job(input_mb=512.0, reducers=0)
    eager = run_job(unbalanced, job, spec_none, seed=3, replication=1)
    waiting = run_job(unbalanced, job, spec_wait, seed=3, replication=1)
    # Infinite delay means nodes only ever run local blocks.
    assert all(m.remote_mb == 0.0 for m in waiting.trace.maps())
    assert waiting.trace.data_processed_mb() == pytest.approx(512.0)
    # Zero delay permits remote dispatch whenever a slot is free.
    assert eager.jct <= waiting.jct + 1e-6
