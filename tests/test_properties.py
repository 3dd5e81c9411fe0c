"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sizing import BU_MB, MAX_BUS, DynamicSizer, NodeSizing
from repro.core.speed_monitor import SpeedMonitor
from repro.hdfs.block import Block
from repro.hdfs.locality import LocalityIndex
from repro.mapreduce.shuffle import IntermediateStore
from repro.sim.engine import Simulator
from repro.sim.work import VariableRateWork


# ---------------------------------------------------------------------------
# Event engine
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
    st.floats(min_value=0.1, max_value=1000.0),
)
def test_work_completion_time_equals_integral(rates, work):
    """With rate changes at integer times, completion satisfies
    sum(rate_i * dt_i) == work exactly (to float tolerance)."""
    sim = Simulator()
    done = []
    w = VariableRateWork(sim, work=work, rate=rates[0], on_done=lambda: done.append(sim.now))
    for i, r in enumerate(rates[1:], start=1):
        sim.schedule(float(i), lambda r=r: None if w.done else w.set_rate(r))
    sim.run()
    assert len(done) == 1
    t = done[0]
    consumed, prev, rate = 0.0, 0.0, rates[0]
    for i, r in enumerate(rates[1:], start=1):
        if i >= t:
            break
        consumed += rate * (i - prev)
        prev, rate = float(i), r
    consumed += rate * (t - prev)
    assert math.isclose(consumed, work, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# LocalityIndex
# ---------------------------------------------------------------------------
replicas_strategy = st.lists(
    st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3),
    min_size=1,
    max_size=30,
)


@given(replicas_strategy, st.sampled_from(["a", "b", "c", "d"]), st.integers(1, 10))
def test_take_for_node_never_duplicates(replicas, node, n):
    blocks = [Block(i, "f", 8.0, replicas=tuple(sorted(r))) for i, r in enumerate(replicas)]
    idx = LocalityIndex(blocks)
    taken = []
    while idx.unprocessed:
        local, remote = idx.take_for_node(node, n)
        got = local + remote
        assert got, "take_for_node returned nothing while blocks remain"
        taken.extend(b.block_id for b in got)
    assert sorted(taken) == list(range(len(blocks)))
    assert len(set(taken)) == len(taken)


@given(replicas_strategy)
def test_index_maps_stay_consistent(replicas):
    blocks = [Block(i, "f", 8.0, replicas=tuple(sorted(r))) for i, r in enumerate(replicas)]
    idx = LocalityIndex(blocks)
    # Take half, checking the inverse-map invariant at each step.
    for i in range(len(blocks) // 2):
        idx.take(i)
        for bid, nodes in idx.block_to_node.items():
            for node in nodes:
                assert bid in idx.node_to_block[node]
        for node, bids in idx.node_to_block.items():
            for bid in bids:
                assert node in idx.block_to_node[bid]


@given(replicas_strategy, st.integers(0, 29))
def test_put_back_roundtrip(replicas, which):
    blocks = [Block(i, "f", 8.0, replicas=tuple(sorted(r))) for i, r in enumerate(replicas)]
    idx = LocalityIndex(blocks)
    which = which % len(blocks)
    before_local = {n: idx.local_blocks(n) for n in "abcd"}
    b = idx.take(which)
    idx.put_back(b)
    after_local = {n: idx.local_blocks(n) for n in "abcd"}
    assert before_local == after_local
    assert idx.unprocessed == len(blocks)


# ---------------------------------------------------------------------------
# Sizing (Algorithm 1)
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
def test_size_unit_never_shrinks(productivities):
    s = NodeSizing(BU_MB)
    prev = s.size_unit_mb
    for p in productivities:
        s.vertical(p)
        assert s.size_unit_mb >= prev
        prev = s.size_unit_mb


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=20),
    st.floats(min_value=1.0, max_value=20.0),
)
def test_task_size_bounded_and_positive(productivities, rel_speed):
    d = DynamicSizer()
    for p in productivities:
        d.record_wave("n", p)
    bus = d.task_size_bus("n", rel_speed)
    assert 1 <= bus <= MAX_BUS


@given(st.floats(min_value=1.0, max_value=10.0), st.floats(min_value=1.0, max_value=10.0))
def test_task_size_monotone_in_speed(s1, s2):
    d = DynamicSizer()
    d.record_wave("n", 0.3)
    lo, hi = sorted((s1, s2))
    assert d.task_size_bus("n", lo) <= d.task_size_bus("n", hi)


# ---------------------------------------------------------------------------
# SpeedMonitor
# ---------------------------------------------------------------------------
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=5),
        min_size=1,
    )
)
def test_relative_speed_at_least_one(reports):
    m = SpeedMonitor()
    for node, values in reports.items():
        for v in values:
            m.report_completion(node, v)
    for node in reports:
        assert m.relative_speed(node) >= 1.0
    slowest = m.slowest_speed()
    assert slowest is not None
    assert min(m.get_speed(n) for n in reports) == slowest


@given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=50))
def test_monitor_estimate_within_sample_range(values):
    m = SpeedMonitor()
    for v in values:
        m.report_completion("n", v)
    est = m.get_speed("n")
    window = values[-5:]
    assert min(window) - 1e-9 <= est <= max(window) + 1e-9


# ---------------------------------------------------------------------------
# IntermediateStore
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(min_value=0.0, max_value=1e4)),
        min_size=1,
        max_size=50,
    )
)
def test_store_fractions_sum_to_one(deposits):
    s = IntermediateStore()
    for node, mb in deposits:
        s.add(node, mb)
    if s.total_mb > 0:
        total_frac = sum(s.node_fraction(n) for n in ("a", "b", "c"))
        assert math.isclose(total_frac, 1.0, rel_tol=1e-9)
        for n in ("a", "b", "c"):
            share = s.reducer_share_mb(4)
            assert 0.0 <= s.cross_node_mb(n, share) <= share + 1e-9

