"""Tests for the baseline engines: stock Hadoop, speculation, SkewTune.

These run small end-to-end jobs on noise-free clusters so behaviour is
predictable, plus targeted unit checks of the policy logic.
"""

import pytest

from repro.engines import ENGINES, run_job, skewtune, speculation
from tests.conftest import make_cluster, quick_run, tiny_job


# ---------------------------------------------------------------------------
# Stock Hadoop end-to-end
# ---------------------------------------------------------------------------
def test_stock_processes_all_input():
    r = quick_run("hadoop-64", input_mb=512.0)
    assert r.trace.data_processed_mb() == pytest.approx(512.0)
    assert len(r.trace.maps()) == 8  # 512 / 64


def test_stock_one_map_per_block():
    r = quick_run("hadoop-128", input_mb=512.0)
    assert len(r.trace.maps()) == 4
    assert all(m.num_bus == 1 for m in r.trace.maps())


def test_stock_reduce_phase_after_maps():
    r = quick_run("hadoop-64", input_mb=512.0)
    reduces = r.trace.reduces()
    assert len(reduces) == 2
    assert min(x.start for x in reduces) >= r.trace.map_phase_end


def test_stock_map_only_job():
    from repro.engines import run_job
    job = tiny_job(input_mb=256.0, reducers=0)
    r = run_job(lambda: make_cluster(), job, "hadoop-64", seed=1)
    assert r.trace.reduces() == []
    assert r.jct == pytest.approx(r.trace.map_phase_end, rel=1e-9)


def test_stock_trace_has_milestones():
    r = quick_run("hadoop-64")
    t = r.trace
    assert t.map_phase_start < t.map_phase_end <= t.finish_time
    assert t.jct > 0


def test_stock_locality_mostly_local_with_replication():
    r = quick_run("hadoop-64", input_mb=1024.0, replication=3)
    maps = r.trace.maps()
    local = sum(1 for m in maps if m.remote_mb == 0)
    assert local / len(maps) > 0.8


def test_stock_determinism():
    a = quick_run("hadoop-64", seed=11)
    b = quick_run("hadoop-64", seed=11)
    assert a.jct == b.jct
    assert [m.task_id for m in a.trace.maps()] == [m.task_id for m in b.trace.maps()]
    assert [m.end for m in a.trace.maps()] == [m.end for m in b.trace.maps()]


def test_stock_different_seeds_differ():
    a = quick_run("hadoop-64", seed=11, input_mb=2048.0)
    b = quick_run("hadoop-64", seed=12, input_mb=2048.0)
    assert a.jct != b.jct


# ---------------------------------------------------------------------------
# Speculation
# ---------------------------------------------------------------------------
def slow_node_cluster():
    """Two fast nodes and one very slow node: a speculation target."""
    return make_cluster(speeds=(2.0, 2.0, 0.25), slots=2)


def test_speculation_launches_backup_for_straggler():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "hadoop-64", seed=5)
    spec = [m for m in r.trace.records if m.kind == "map" and m.speculative]
    assert spec, "expected at least one speculative copy on the slow node"


def test_speculation_loser_is_killed_and_winner_counted():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "hadoop-64", seed=5)
    all_maps = [m for m in r.trace.records if m.kind == "map"]
    by_task = {}
    for m in all_maps:
        by_task.setdefault(m.task_id, []).append(m)
    for task_id, copies in by_task.items():
        finished = [c for c in copies if not c.killed]
        assert len(finished) == 1, f"{task_id}: {len(finished)} finished copies"
    # Every block processed exactly once by a surviving copy.
    assert r.trace.data_processed_mb() == pytest.approx(768.0)


def test_no_speculation_engine_launches_none():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "hadoop-nospec-64", seed=5)
    assert not any(m.speculative for m in r.trace.records)


def test_speculation_helps_on_slow_node():
    job = tiny_job(input_mb=768.0, reducers=0)
    with_spec = run_job(slow_node_cluster, job, "hadoop-64", seed=5)
    without = run_job(slow_node_cluster, job, "hadoop-nospec-64", seed=5)
    assert with_spec.jct <= without.jct * 1.02


def test_speculation_cap_limits_backups(monkeypatch):
    monkeypatch.setattr(speculation, "SPECULATIVE_CAP_FRAC", 0.01)  # cap -> 1
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0), "hadoop-64", seed=5)
    am = r.am
    backups = [m for m in r.trace.maps() if m.speculative]
    assert len(backups) <= len(am.maps.speculated_ids)


def test_reduce_speculation_rescues_slow_reducer():
    job = tiny_job(input_mb=512.0, reducers=3, shuffle=0.5)
    with_spec = run_job(slow_node_cluster, job, "hadoop-64", seed=9)
    without = run_job(slow_node_cluster, job, "hadoop-nospec-64", seed=9)
    spec_reduces = [x for x in with_spec.trace.records
                    if x.kind == "reduce" and x.speculative]
    # With a 8x speed gap a reducer unlucky enough to land on the slow node
    # should be backed up (if one landed there at all).
    slow_reduces = [x for x in without.trace.reduces() if x.node == "t02"]
    if slow_reduces:
        assert with_spec.jct <= without.jct
    # Reducer count is preserved regardless.
    assert len(with_spec.trace.reduces()) == 3


# ---------------------------------------------------------------------------
# SkewTune
# ---------------------------------------------------------------------------
def test_skewtune_mitigates_straggler():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "skewtune-64", seed=5)
    am = r.am
    assert am.mitigations >= 1
    mitigators = [m for m in r.trace.records if m.task_id.startswith("st")]
    assert mitigators
    # Data conservation: stopped originals' partial output plus mitigator
    # chunks must cover the whole input.
    assert r.trace.data_processed_mb() == pytest.approx(768.0, rel=1e-6)


def test_skewtune_respects_min_remaining(monkeypatch):
    monkeypatch.setattr(skewtune, "MIN_REMAINING_S", 1e9)
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0), "skewtune-64", seed=5)
    assert r.am.mitigations == 0


def test_skewtune_disables_map_speculation():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "skewtune-64", seed=5)
    assert not any(m.speculative and m.kind == "map" for m in r.trace.records)


def test_skewtune_chunks_are_equal_sized():
    r = run_job(slow_node_cluster, tiny_job(input_mb=768.0, reducers=0),
                "skewtune-64", seed=5)
    mitigators = [m for m in r.trace.records if m.task_id.startswith("st")]
    if len(mitigators) > 1:
        sizes = {round(m.size_mb, 6) for m in mitigators}
        # All chunks from one mitigation are equal; multiple mitigations may
        # differ, so check there are at most as many sizes as mitigations.
        assert len(sizes) <= r.am.mitigations


def test_skewtune_helps_vs_nospec():
    job = tiny_job(input_mb=768.0, reducers=0)
    st = run_job(slow_node_cluster, job, "skewtune-64", seed=5)
    nospec = run_job(slow_node_cluster, job, "hadoop-nospec-64", seed=5)
    assert st.jct <= nospec.jct * 1.05


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------
def test_registry_contains_paper_comparison_set():
    assert set(ENGINES) == {
        "hadoop-64", "hadoop-128", "hadoop-nospec-64", "skewtune-64", "flexmap"
    }
    assert ENGINES["hadoop-128"].block_size_mb == 128.0
    assert ENGINES["flexmap"].block_size_mb == 8.0
