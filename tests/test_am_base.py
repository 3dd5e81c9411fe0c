"""Edge-case tests for the ApplicationMaster base machinery."""

import math

import pytest

from repro.check.invariants import InvariantChecker
from repro.cluster.failures import FailureSchedule
from repro.engines import driver, run_job
from repro.engines.registry import resolve_engine
from repro.yarn import overhead
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
        assert store.node_fraction(node) >= 0.0
    assert sum(store.node_fraction(n) for n in map_nodes) == pytest.approx(1.0)


def test_custom_overhead_model_is_respected(monkeypatch):
    normal = quick_run("hadoop-64", input_mb=512.0)
    monkeypatch.setattr(overhead, "CONTAINER_ALLOC_S", 0.0)
    monkeypatch.setattr(overhead, "JVM_STARTUP_S", 0.0)
    monkeypatch.setattr(overhead, "JITTER_FRAC", 0.0)
    zero = quick_run("hadoop-64", input_mb=512.0)
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


# ----------------------------------------------------------------------
# the shared attempt lifecycle and the last-wave heartbeat rule
# ----------------------------------------------------------------------
def _built(engine, job, speeds=(2.0, 2.0, 0.2), replication=3, **bed_kwargs):
    """An unsubmitted AM of ``engine`` on a fresh seed-5 testbed."""
    spec = resolve_engine(engine)
    bed = driver.Testbed(
        lambda: make_cluster(speeds=speeds, slots=2),
        seed=5, replication=replication, **bed_kwargs,
    )
    bed.stage(job, spec.block_size_mb, job)
    am = spec.build(bed.sim, bed.cluster, bed.rm, bed.namenode, job, bed.streams)
    return bed, am


@pytest.mark.parametrize(
    "engine, requests",
    [("hadoop-64", 1), ("flexmap", 1), ("skewtune-64", 1), ("hadoop-nospec-64", 0)],
)
def test_a_last_wave_heartbeat_requests_offers_iff_the_engine_backs_up(engine, requests):
    bed, am = _built(engine, tiny_job(input_mb=768.0, reducers=0))
    am.submit()
    while not (am.index is not None and am.index.unprocessed == 0):
        assert bed.sim.step()
    assert (am.maps.running or am.maps_pending()) and not bed.rm._offer_scheduled
    calls = []
    request_offers = bed.rm.request_offers
    bed.rm.request_offers = lambda: (calls.append(bed.sim.now), request_offers())
    am.heartbeat._tick()
    assert len(calls) == requests
    assert bed.rm._offer_scheduled == bool(requests)


@pytest.mark.parametrize("engine, retries", [("hadoop-64", True), ("skewtune-64", False)])
def test_only_stock_heartbeats_retry_delay_scheduling(engine, retries):
    """One replica per block: nodes without a local block sit out the
    locality delay, and stock's heartbeat re-offers them.  SkewTune's
    heartbeat requests offers only once no block is left."""
    bed, am = _built(
        engine, tiny_job(input_mb=1024.0, reducers=0),
        speeds=(1.0, 1.0, 1.0, 1.0), replication=1,
    )
    unprocessed_at_request = []
    request_offers = bed.rm.request_offers

    def on_heartbeat(round_no, beat=am._on_heartbeat):
        bed.rm.request_offers = lambda: (
            unprocessed_at_request.append(am.index.unprocessed), request_offers()
        )
        beat(round_no)
        bed.rm.request_offers = request_offers

    am._on_heartbeat = on_heartbeat  # what submit() subscribes
    am.run_to_completion()
    assert am.heartbeat.rounds > 1
    assert any(n > 0 for n in unprocessed_at_request) == retries


def test_containers_hold_exactly_the_running_attempts():
    """A checked hadoop-64 run whose crash kills two reducers and whose
    reduce and map backups win races: the AM's container table matches
    its running map and reduce attempts after every event."""
    checker = InvariantChecker()
    bed, am = _built(
        "hadoop-64", tiny_job(input_mb=512.0, reducers=4, shuffle=0.5),
        speeds=(2.0, 2.0, 0.25, 1.0), check=checker,
        failures=FailureSchedule.single(120.0, "t03"),
    )
    am.submit()
    while not am.job_done and bed.sim.step():
        assert set(am.containers) == set(am.maps.running) | set(am.reduces.running)
    assert am.job_done and not am.containers
    assert checker.finalize().ok
    killed = [r for r in am.trace.records if r.killed]
    assert {(r.kind, r.node) for r in killed if r.end == 120.0} == {("reduce", "t03")}
    assert any(r.kind == "reduce" and r.speculative for r in am.trace.records)
    assert any(r.kind == "map" and r.speculative for r in am.trace.records)
