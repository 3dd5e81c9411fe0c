"""Tests for the multi-job cluster service: policies, arrivals, SLO, driver."""

import json

import numpy as np
import pytest

from repro.metrics.stats import Summary
from repro.multijob.arrivals import (
    ClosedLoopArrivals,
    JobRequest,
    PoissonArrivals,
    TraceArrivals,
    load_arrival_trace,
)
from repro.multijob.policies import (
    CLUSTER_POLICIES,
    CapacityPolicy,
    FairPolicy,
    FifoPolicy,
    make_policy,
)
from repro.multijob.service import ClusterService
from repro.multijob.slo import compute_slo
from repro.obs import Observability
from repro.sim.random import RandomStreams
from repro.workloads.puma import puma
from repro.yarn.resource_manager import AppRecord
from tests.conftest import make_cluster


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------
def _record(index, queue="default", weight=1.0, used=0):
    r = AppRecord(am=object(), index=index, queue=queue, weight=weight)
    r.used_slots = used
    return r


def test_fifo_orders_by_registration_index():
    records = [_record(2), _record(0), _record(1)]
    assert [r.index for r in FifoPolicy().order(records)] == [0, 1, 2]


def test_fair_orders_by_weighted_usage_with_index_tiebreak():
    a = _record(0, used=4, weight=1.0)  # share 4.0
    b = _record(1, used=4, weight=4.0)  # share 1.0
    c = _record(2, used=1, weight=1.0)  # share 1.0 — ties with b, later index
    assert [r.index for r in FairPolicy().order([a, b, c])] == [1, 2, 0]


def test_capacity_orders_queues_by_usage_over_capacity():
    policy = CapacityPolicy({"prod": 3.0, "batch": 1.0})
    prod = [_record(0, "prod", used=3), _record(1, "prod", used=0)]
    batch = [_record(2, "batch", used=2)]
    ordered = policy.order(prod + batch)
    # prod usage/capacity = 3/3 = 1.0 < batch 2/1 = 2.0; FIFO inside prod.
    assert [r.index for r in ordered] == [0, 1, 2]


def test_capacity_rejects_bad_shares():
    with pytest.raises(ValueError):
        CapacityPolicy({"q": 0.0})


def test_make_policy_registry():
    assert set(CLUSTER_POLICIES) == {"fifo", "fair", "capacity"}
    assert isinstance(make_policy("fair"), FairPolicy)
    p = make_policy("capacity", {"prod": 2.0})
    assert p.capacity_of("prod") == 2.0
    with pytest.raises(KeyError):
        make_policy("lottery")


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------
def test_poisson_arrivals_deterministic_per_seed():
    def times(seed):
        proc = PoissonArrivals(0.1, 10, RandomStreams(seed).stream("arrivals"))
        return [r.submit_time for r in proc.initial()]

    assert times(5) == times(5)
    assert times(5) != times(6)
    assert times(5) == sorted(times(5))  # cumulative sums are monotone


def test_poisson_round_robin_covers_engine_benchmark_product():
    proc = PoissonArrivals(
        1.0, 8, np.random.default_rng(0),
        benchmarks=("WC", "GR"), engines=("flexmap", "hadoop-64"),
    )
    mix = [(r.workload.abbrev, r.engine) for r in proc.initial()]
    # Each benchmark runs under every engine before the mix advances.
    assert mix[:4] == [
        ("WC", "flexmap"), ("WC", "hadoop-64"),
        ("GR", "flexmap"), ("GR", "hadoop-64"),
    ]
    assert mix[4:] == mix[:4]


def test_poisson_input_scale():
    proc = PoissonArrivals(
        1.0, 2, np.random.default_rng(0), benchmarks=("WC",), input_scale=0.25
    )
    wc = puma("WC")
    for r in proc.initial():
        assert r.input_mb == pytest.approx(wc.small_gb * 1024.0 * 0.25)


def test_poisson_rejects_bad_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        PoissonArrivals(0.0, 5, rng)
    with pytest.raises(ValueError):
        PoissonArrivals(1.0, 0, rng)
    with pytest.raises(ValueError):
        PoissonArrivals(1.0, 5, rng, engines=())
    with pytest.raises(ValueError):
        PoissonArrivals(1.0, 5, rng, input_scale=0.0)


def test_closed_loop_admits_on_completion():
    proc = ClosedLoopArrivals(n_jobs=5, width=2, think_time_s=3.0)
    first = proc.initial()
    assert len(first) == 2
    assert all(r.submit_time == 0.0 for r in first)
    nxt = proc.next_on_completion(1, now=100.0)
    assert nxt.submit_time == 103.0
    proc.next_on_completion(2, now=110.0)
    proc.next_on_completion(3, now=120.0)
    assert proc.next_on_completion(4, now=130.0) is None  # all 5 issued


def test_closed_loop_width_capped_at_n_jobs():
    proc = ClosedLoopArrivals(n_jobs=3, width=10)
    assert len(proc.initial()) == 3
    assert proc.next_on_completion(1, now=5.0) is None


def test_job_request_validation():
    with pytest.raises(ValueError):
        JobRequest(-1.0, puma("WC"), "flexmap")
    with pytest.raises(ValueError):
        JobRequest(0.0, puma("WC"), "flexmap", weight=0.0)


def test_trace_arrivals_sorted_by_submit_time():
    wc = puma("WC")
    reqs = [JobRequest(5.0, wc, "flexmap"), JobRequest(1.0, wc, "hadoop-64")]
    proc = TraceArrivals(reqs)
    assert [r.submit_time for r in proc.initial()] == [1.0, 5.0]
    assert proc.total_jobs == 2


def test_load_arrival_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "# comment line\n"
        "\n"
        '{"t": 0.0, "benchmark": "WC"}\n'
        '{"t": 7.5, "benchmark": "GR", "engine": "hadoop-64",'
        ' "input_mb": 256.0, "queue": "batch", "weight": 2.0}\n'
    )
    proc = load_arrival_trace(path)
    assert proc.total_jobs == 2
    first, second = proc.initial()
    assert first.workload.abbrev == "WC"
    assert first.engine == "flexmap"  # default engine
    assert second.engine == "hadoop-64"
    assert second.input_mb == 256.0
    assert second.queue == "batch"
    assert second.weight == 2.0


def test_load_arrival_trace_rejects_malformed(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_arrival_trace(bad_json)
    missing = tmp_path / "missing.jsonl"
    missing.write_text('{"t": 1.0}\n')
    with pytest.raises(ValueError, match="benchmark"):
        load_arrival_trace(missing)
    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text('{"t": 0.0, "benchmark": "WC"}\n{"t": 1.0, "benchmark": "XX"}\n')
    with pytest.raises(ValueError, match=r"unknown\.jsonl:2: unknown PUMA benchmark 'XX'"):
        load_arrival_trace(unknown)
    unknown.write_text('{"t": 0.0, "benchmark": "WC", "engine": "nope"}\n')
    with pytest.raises(ValueError, match=r"unknown\.jsonl:1: unknown engine 'nope'"):
        load_arrival_trace(unknown)


# ---------------------------------------------------------------------------
# namespaced streams
# ---------------------------------------------------------------------------
def test_namespaced_streams_isolate_jobs():
    base = RandomStreams(9)
    a = base.child("j000")
    b = base.child("j001")
    draws_a = a.stream("skew").random(4)
    draws_b = b.stream("skew").random(4)
    assert not np.allclose(draws_a, draws_b)
    # Replaying the same (seed, job id, name) reproduces the draws exactly.
    replay = RandomStreams(9).child("j000").stream("skew").random(4)
    assert np.allclose(draws_a, replay)


# ---------------------------------------------------------------------------
# SLO statistics
# ---------------------------------------------------------------------------
def test_dist_stats_percentiles():
    stats = Summary.of([float(v) for v in range(1, 101)])
    assert stats.n == 100
    assert stats.mean == pytest.approx(50.5)
    assert stats.median == pytest.approx(50.5)
    assert stats.p99 == pytest.approx(np.percentile(np.arange(1, 101), 99))
    assert stats.max == 100.0
    with pytest.raises(ValueError):
        Summary.of([])


# ---------------------------------------------------------------------------
# service driver (end-to-end on a tiny cluster)
# ---------------------------------------------------------------------------
def _tiny_service(seed=3, policy="fair", n_jobs=4, compute_slowdown=False, obs=None):
    arrivals = PoissonArrivals(
        rate=0.05,
        n_jobs=n_jobs,
        rng=RandomStreams(seed).stream("arrivals"),
        benchmarks=("WC", "GR"),
        engines=("flexmap", "hadoop-64"),
        input_mb=256.0,
    )
    service = ClusterService(
        lambda: make_cluster(speeds=(1.0, 1.0, 2.0), slots=2),
        arrivals,
        policy=policy,
        seed=seed,
        obs=obs,
    )
    return service.run(compute_slowdown=compute_slowdown)


def test_service_completes_all_jobs():
    result = _tiny_service()
    assert len(result.outcomes) == 4
    assert result.policy == "fair"
    assert sorted(o.job_id for o in result.outcomes) == [
        "j000", "j001", "j002", "j003"
    ]
    for o in result.outcomes:
        assert o.jct > 0
        assert o.finish_time >= o.submit_time
    assert result.utilization  # sampled at least once
    assert all(0.0 <= frac <= 1.0 for _, frac in result.utilization)


def test_service_is_deterministic_per_seed():
    a = _tiny_service(seed=3)
    b = _tiny_service(seed=3)
    assert [(o.job_id, o.jct) for o in a.outcomes] == [
        (o.job_id, o.jct) for o in b.outcomes
    ]
    assert a.events_processed == b.events_processed
    assert a.report.to_json() == b.report.to_json()
    c = _tiny_service(seed=4)
    assert [o.jct for o in a.outcomes] != [o.jct for o in c.outcomes]


def test_service_slowdown_vs_isolated_baseline():
    result = _tiny_service(n_jobs=3, compute_slowdown=True)
    for o in result.outcomes:
        assert o.slowdown is not None
        assert o.slowdown > 0.5  # isolated run is a sane denominator
    report = result.report
    assert report.makespan > 0
    for engine_slo in report.per_engine:
        assert engine_slo.slowdown is not None
    payload = json.loads(report.to_json())
    assert payload["cluster"] == "test"
    assert payload["policy"] == "fair"


def test_slo_report_and_jct_histogram_share_one_percentile_rule():
    obs = Observability()
    result = _tiny_service(n_jobs=6, obs=obs)
    hist = obs.metrics.snapshot()["histograms"]["service.jct"]
    jct = result.report.jct
    assert hist["count"] == jct.n == 6
    assert (hist["p50"], hist["p95"], hist["max"]) == (jct.median, jct.p95, jct.max)


def test_burst_jobs_run_under_their_submitted_engines():
    # Twelve jobs at t=0, engines named by string: each AM is built through
    # the registry, and each job's map splits show which engine sized them.
    engines = ("hadoop-64", "flexmap")
    benchmarks = ("WC", "GR", "HR")
    requests = [
        JobRequest(
            submit_time=0.0,
            workload=puma(benchmarks[i % len(benchmarks)]),
            engine=engines[i % len(engines)],
            input_mb=128.0,
        )
        for i in range(12)
    ]
    service = ClusterService(
        lambda: make_cluster(speeds=(1.0, 1.0, 2.0), slots=2),
        TraceArrivals(requests),
        policy="fair",
        seed=7,
    )
    outcomes = {o.job_id: o for o in service.run(compute_slowdown=False).outcomes}
    assert len(outcomes) == len(requests)
    for i, request in enumerate(requests):
        outcome = outcomes[f"j{i:03d}"]
        assert (outcome.engine, outcome.benchmark) == (
            request.engine, request.workload.abbrev
        )
        sizes = {r.size_mb for r in outcome.trace.maps(include_killed=True)}
        if request.engine == "hadoop-64":
            assert sizes == {64.0}
        else:
            assert min(sizes) < 64.0


def test_service_policies_change_schedule():
    fifo = _tiny_service(policy="fifo")
    fair = _tiny_service(policy="fair")
    assert fifo.policy == "fifo"
    # Same arrival stream, different offer routing: schedules diverge.
    assert [o.jct for o in fifo.outcomes] != [o.jct for o in fair.outcomes]


def test_service_closed_loop_arrivals():
    arrivals = ClosedLoopArrivals(
        n_jobs=3, width=2, benchmarks=("WC",), engines=("flexmap",),
        input_mb=256.0,
    )
    service = ClusterService(
        lambda: make_cluster(speeds=(1.0, 1.0), slots=2),
        arrivals,
        policy="fifo",
        seed=1,
    )
    result = service.run(compute_slowdown=False)
    assert len(result.outcomes) == 3
    # The third job was admitted by a completion, not at t=0.
    assert result.outcomes[-1].submit_time > 0.0


def test_service_capacity_queues_via_trace():
    wc = puma("WC")
    arrivals = TraceArrivals([
        JobRequest(0.0, wc, "flexmap", input_mb=256.0, queue="prod"),
        JobRequest(0.0, wc, "hadoop-64", input_mb=256.0, queue="batch"),
    ])
    service = ClusterService(
        lambda: make_cluster(speeds=(1.0, 1.0), slots=2),
        arrivals,
        policy=CapacityPolicy({"prod": 3.0, "batch": 1.0}),
        seed=2,
    )
    result = service.run(compute_slowdown=False)
    assert len(result.outcomes) == 2
    assert {o.queue for o in result.outcomes} == {"prod", "batch"}
    assert result.report.policy == "capacity"


def test_service_rejects_bad_sampling_period():
    arrivals = ClosedLoopArrivals(n_jobs=1, width=1)
    with pytest.raises(ValueError):
        ClusterService(make_cluster, arrivals, utilization_period_s=0.0)


def test_compute_slo_groups_engines():
    result = _tiny_service()
    report = compute_slo(
        result.outcomes, result.utilization, cluster_name="test", policy="fair"
    )
    engines = [e.engine for e in report.per_engine]
    assert engines == sorted(engines)
    assert set(engines) == {"flexmap", "hadoop-64"}
    total = sum(e.jct.n for e in report.per_engine)
    assert total == len(result.outcomes)
    rendered = report.render()
    assert "makespan" in rendered
    assert "flexmap" in rendered
