"""Unit tests for random-stream management and trace records."""

import math

import pytest

from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace, TaskRecord


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------
def test_same_seed_same_stream():
    a = RandomStreams(7).stream("x").random(5).tolist()
    b = RandomStreams(7).stream("x").random(5).tolist()
    assert a == b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random(5).tolist()
    b = RandomStreams(2).stream("x").random(5).tolist()
    assert a != b


def test_different_names_are_independent():
    rs = RandomStreams(7)
    a = rs.stream("alpha").random(5).tolist()
    b = rs.stream("beta").random(5).tolist()
    assert a != b


def test_stream_is_cached_and_advances():
    rs = RandomStreams(7)
    first = rs.stream("x").random()
    second = rs.stream("x").random()
    assert first != second  # same generator object, position advanced


def test_adding_consumer_does_not_perturb_existing():
    rs1 = RandomStreams(7)
    _ = rs1.stream("a").random(3)
    val1 = rs1.stream("b").random()

    rs2 = RandomStreams(7)
    _ = rs2.stream("c").random(100)  # extra consumer
    _ = rs2.stream("a").random(3)
    val2 = rs2.stream("b").random()
    assert val1 == val2


def test_fresh_resets_position():
    rs = RandomStreams(7)
    a = rs.fresh("x").random()
    b = rs.fresh("x").random()
    assert a == b


@pytest.mark.parametrize("name", ["skew", "overhead", "exec-noise"])
def test_child_stream_is_the_prefixed_stream(name):
    a = RandomStreams(7).child("j000").stream(name).random(5).tolist()
    b = RandomStreams(7).stream("j000/" + name).random(5).tolist()
    assert a == b
    assert RandomStreams(7).child("j000").fresh(name).random() == b[0]


def test_child_shares_the_family_generators():
    rs = RandomStreams(7)
    assert rs.child("j000").stream("skew") is rs.stream("j000/skew")
    assert rs.child("a").child("b").stream("x") is rs.stream("a/b/x")
    assert rs.child("j000").seed == rs.seed


# ---------------------------------------------------------------------------
# TaskRecord / JobTrace
# ---------------------------------------------------------------------------
def rec(kind="map", start=0.0, end=10.0, overhead=2.0, effective=8.0, **kw):
    r = TaskRecord(
        task_id=kw.pop("task_id", "m1"),
        kind=kind,
        node="n0",
        size_mb=64.0,
        start=start,
        overhead=overhead,
        **kw,
    )
    r.end = end
    r.effective = effective
    if not r.killed:
        r.processed_mb = r.size_mb
    return r


def test_record_runtime_and_productivity():
    r = rec(start=5.0, end=15.0, effective=8.0)
    assert r.runtime == 10.0
    assert r.productivity == pytest.approx(0.8)


def test_productivity_zero_for_degenerate_runtime():
    r = rec(start=5.0, end=5.0)
    assert r.productivity == 0.0


def test_trace_selectors_filter_kind_and_killed():
    t = JobTrace()
    t.add(rec(kind="map", task_id="m1"))
    t.add(rec(kind="map", task_id="m2", killed=True))
    t.add(rec(kind="reduce", task_id="r1"))
    assert [r.task_id for r in t.maps()] == ["m1"]
    assert [r.task_id for r in t.maps(include_killed=True)] == ["m1", "m2"]
    assert [r.task_id for r in t.reduces()] == ["r1"]


def test_trace_jct_and_phase():
    t = JobTrace(submit_time=0.0)
    t.finish_time = 100.0
    t.map_phase_start = 2.0
    t.map_phase_end = 52.0
    assert t.jct == 100.0
    assert t.map_phase_runtime == 50.0


def test_map_runtimes_and_data_processed():
    t = JobTrace()
    t.add(rec(task_id="m1", start=0, end=10))
    t.add(rec(task_id="m2", start=0, end=30))
    assert t.map_runtimes() == [10.0, 30.0]
    assert t.data_processed_mb() == 128.0


def test_unfinished_trace_has_nan_milestones():
    t = JobTrace()
    assert math.isnan(t.finish_time)
    assert math.isnan(t.map_phase_start)
