"""Edge-case tests for the ApplicationMaster base machinery."""

import math

import pytest

from repro.engines import run_job
from repro.engines.base import AMConfig
from repro.yarn.overhead import OverheadModel
from tests.conftest import make_cluster, quick_run, tiny_job


def test_base_am_requeue_is_abstract():
    from repro.engines.base import ApplicationMaster, MapAssignment

    class Dummy(ApplicationMaster):
        pass

    # requeue_map on the base class must refuse rather than drop data.
    dummy = Dummy.__new__(Dummy)
    with pytest.raises(NotImplementedError):
        ApplicationMaster.requeue_map(dummy, None)


def test_run_to_completion_guard_raises():
    with pytest.raises(RuntimeError):
        quick_run("hadoop-64", input_mb=2048.0, max_events=10)


def test_trace_milestones_ordering():
    r = quick_run("hadoop-64", input_mb=512.0)
    t = r.trace
    assert t.submit_time <= t.map_phase_start
    assert t.map_phase_start < t.map_phase_end
    assert t.map_phase_end <= t.finish_time
    for rec in t.records:
        assert rec.end >= rec.start
        assert not math.isnan(rec.end)


def test_reduce_shares_are_even():
    r = quick_run("hadoop-64", input_mb=512.0, reducers=4, shuffle=0.5)
    shares = {round(x.size_mb, 6) for x in r.trace.reduces()}
    assert len(shares) == 1
    assert shares.pop() == pytest.approx(512.0 * 0.5 / 4)


def test_map_output_locality_accounting():
    r = quick_run("hadoop-64", input_mb=512.0, reducers=2, shuffle=0.5)
    store = r.am.store
    assert store.total_mb == pytest.approx(512.0 * 0.5)
    # Every depositing node actually ran maps.
    map_nodes = {m.node for m in r.trace.maps()}
    for node in map_nodes:
        assert store.node_mb(node) >= 0.0
    assert sum(store.node_mb(n) for n in map_nodes) == pytest.approx(store.total_mb)


def test_custom_overhead_model_is_respected():
    cfg = AMConfig(
        block_size_mb=64.0,
        overhead=OverheadModel(container_alloc_s=0.0, jvm_startup_s=0.0,
                               jitter_frac=0.0),
    )
    zero = quick_run("hadoop-64", input_mb=512.0, am_config=cfg)
    normal = quick_run("hadoop-64", input_mb=512.0)
    assert zero.jct < normal.jct
    assert all(m.overhead == 0.0 for m in zero.trace.maps())
    # With zero overhead every map is pure compute: productivity 1.0.
    assert all(m.productivity == pytest.approx(1.0) for m in zero.trace.maps())


def test_containers_never_exceed_slots():
    """At no completion instant do more attempts run than cluster slots."""
    r = quick_run("hadoop-64", input_mb=2048.0)
    events = []
    for rec in r.trace.records:
        events.append((rec.start, 1))
        events.append((rec.end, -1))
    events.sort()
    running = peak = 0
    for _, delta in events:
        running += delta
        peak = max(peak, running)
    assert peak <= 3 * 2  # 3 nodes x 2 slots (conftest cluster)


def test_single_slot_cluster_serializes():
    r = run_job(
        lambda: make_cluster(speeds=(1.0,), slots=1),
        tiny_job(input_mb=256.0, reducers=1),
        "hadoop-64",
        seed=1,
    )
    recs = sorted(r.trace.records, key=lambda x: x.start)
    for a, b in zip(recs, recs[1:]):
        assert b.start >= a.end - 1e-9


def test_job_with_one_block():
    r = quick_run("hadoop-64", input_mb=32.0)
    assert len(r.trace.maps()) == 1
    assert r.trace.data_processed_mb() == pytest.approx(32.0)


def test_flexmap_with_input_smaller_than_bu():
    r = quick_run("flexmap", input_mb=5.0)
    assert r.trace.data_processed_mb() == pytest.approx(5.0)
    assert len(r.trace.maps()) == 1
