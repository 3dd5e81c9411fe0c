"""Unit tests for the speculation policy logic (LATE, for maps and
reduces) and stock Hadoop's delay scheduling."""

import pytest

from repro.engines import run_job, speculation, stock
from tests.conftest import make_cluster, tiny_job


def slow_cluster():
    return make_cluster(speeds=(2.0, 2.0, 0.2), slots=2)


def run_with(seed=5, **job_kw):
    job = tiny_job(input_mb=768.0, reducers=0, **job_kw)
    return run_job(slow_cluster, job, "hadoop-64", seed=seed)


def test_late_speculates_slowest_first():
    r = run_with()
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


def test_min_age_blocks_young_tasks(monkeypatch):
    monkeypatch.setattr(speculation, "MIN_AGE_S", 1e9)
    r = run_with()
    assert not any(m.speculative for m in r.trace.records)


def test_max_progress_blocks_nearly_done(monkeypatch):
    monkeypatch.setattr(speculation, "MAX_PROGRESS", 0.0)
    r = run_with()
    assert not any(m.speculative for m in r.trace.records)


@pytest.mark.parametrize(
    "constants, expect_backups",
    [({}, True), ({"MIN_AGE_S": 1e9}, False), ({"MAX_PROGRESS": 0.0}, False)],
    ids=["default", "min-age", "max-progress"],
)
def test_reduce_backups_follow_the_straggler_rule(monkeypatch, constants, expect_backups):
    """Reduce backups share the map straggler rule, thresholds included."""
    for name, value in constants.items():
        monkeypatch.setattr(speculation, name, value)
    r = run_job(
        lambda: make_cluster(speeds=(2.0, 2.0, 0.25), slots=2),
        tiny_job(input_mb=512.0, reducers=4, shuffle=0.5),
        "hadoop-64",
        seed=2,
    )
    backups = [m for m in r.trace.records if m.kind == "reduce" and m.speculative]
    assert bool(backups) == expect_backups


def test_backup_loser_never_contributes_output():
    r = run_with()
    for m in r.trace.records:
        if m.killed:
            assert m.processed_mb == 0.0


def test_speculation_counts_every_task_once():
    r = run_with()
    finished = [m for m in r.trace.maps() if not m.task_id.startswith("st")]
    assert len({m.task_id for m in finished}) == len(finished)


# ---------------------------------------------------------------------------
# Delay scheduling (stock locality wait)
# ---------------------------------------------------------------------------
def test_delay_scheduling_defers_remote_dispatch(monkeypatch):
    """With replication 1, a node without local blocks must wait out the
    locality delay before taking remote work."""

    def unbalanced():
        # One node stores everything (replication 1 + all blocks local to t00
        # via round-robin over a single-node namenode is impossible; instead
        # use 2 nodes and replication 1 so half the blocks are remote).
        return make_cluster(speeds=(1.0, 1.0), slots=2)

    job = tiny_job(input_mb=512.0, reducers=0)
    monkeypatch.setattr(stock, "LOCALITY_DELAY_S", 0.0)
    eager = run_job(unbalanced, job, "hadoop-nospec-64", seed=3, replication=1)
    monkeypatch.setattr(stock, "LOCALITY_DELAY_S", 1e9)
    waiting = run_job(unbalanced, job, "hadoop-nospec-64", seed=3, replication=1)
    # Infinite delay means nodes only ever run local blocks.
    assert all(m.remote_mb == 0.0 for m in waiting.trace.maps())
    assert waiting.trace.data_processed_mb() == pytest.approx(512.0)
    # Zero delay permits remote dispatch whenever a slot is free.
    assert eager.jct <= waiting.jct + 1e-6
