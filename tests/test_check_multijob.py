"""Multi-job service under failures, per cluster scheduling policy.

Composes the two subsystems the harness stresses hardest: a shared
cluster running a Poisson stream of jobs while nodes crash.  For every
policy the service must drain the stream (balance identity:
``expected == submitted + pending`` and ``submitted == completed +
running``), conserve every job's bytes, and keep the invariant checker
quiet.
"""

import pytest

from repro.check import InvariantChecker, ScenarioConfig, run_scenario
from repro.check.harness import POLICIES, build_cluster, build_failures
from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.multijob.arrivals import PoissonArrivals
from repro.multijob.service import ClusterService
from repro.sim.random import RandomStreams


def _service(policy: str, failures: FailureSchedule | None, check=None) -> ClusterService:
    config = ScenarioConfig(
        engine="flexmap",
        speeds=(1.0, 1.0, 1.0, 2.0),
        slots=(2, 2, 2, 2),
        input_mb=256.0,
    )
    arrivals = PoissonArrivals(
        rate=0.02,
        n_jobs=3,
        rng=RandomStreams(11).stream("arrivals"),
        benchmarks=("WC", "GR"),
        engines=("flexmap",),
        input_mb=256.0,
    )
    return ClusterService(
        cluster_factory=lambda: build_cluster(config),
        arrivals=arrivals,
        policy=policy,
        seed=11,
        failures=failures,
        check=check,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_service_survives_node_failure_per_policy(policy):
    checker = InvariantChecker()
    service = _service(
        policy, FailureSchedule([NodeFailure(40.0, "f01")]), check=checker
    )
    result = service.run(compute_slowdown=False)
    report = checker.finalize()
    assert report.ok, report.summary()

    # Balance identity: every job is accounted for, exactly once.
    assert service.jobs_expected == service.jobs_submitted + service.jobs_pending
    assert service.jobs_submitted == service.jobs_completed + service.jobs_running
    assert service.jobs_completed == 3
    assert service.jobs_running == 0 and service.jobs_pending == 0

    # Every job conserved its bytes despite the crash.
    for outcome in result.outcomes:
        assert outcome.trace.data_processed_mb() == pytest.approx(
            outcome.input_mb, rel=1e-6
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_service_balance_counters_mid_run(policy):
    """The balance identity holds while jobs are still in flight, not just
    at the end — sampled by stepping the service's simulator manually."""
    service = _service(policy, FailureSchedule([NodeFailure(40.0, "f02")]))
    for request in service.arrivals.initial():
        service._schedule_request(request)
    steps = 0
    while service.jobs_completed < service.jobs_expected and steps < 200_000:
        if not service.sim.step():
            break
        service._collect_finished()
        steps += 1
        assert service.jobs_expected == service.jobs_submitted + service.jobs_pending
        assert service.jobs_submitted == service.jobs_completed + service.jobs_running
    assert service.jobs_completed == service.jobs_expected


@pytest.mark.parametrize("policy", POLICIES)
def test_checked_multijob_scenario_per_policy(policy):
    """The fuzz-harness route to the same composition: n_jobs > 1 plus a
    failure schedule, one shared checked cluster."""
    config = ScenarioConfig(
        engine="hadoop-64",
        speeds=(1.0, 1.0, 2.0),
        slots=(2, 2, 2),
        input_mb=128.0,
        failures=((35.0, 0),),
        n_jobs=2,
        policy=policy,
    )
    result = run_scenario(config)
    assert result.report.ok, result.report.summary()
    assert len(result.jcts) == 2
    assert result.report.ams_attached == 2


def test_failure_between_jobs_does_not_leak_into_later_job():
    """A node that dies while the cluster is idle (between arrivals) must
    simply be unavailable to later jobs — no phantom re-enqueues."""
    checker = InvariantChecker()
    service = _service("fifo", FailureSchedule([NodeFailure(1.0, "f03")]), check=checker)
    result = service.run(compute_slowdown=False)
    report = checker.finalize()
    assert report.ok, report.summary()
    assert service.jobs_completed == 3
    # The fast node died at t=1; no attempt may start on it afterwards.
    for outcome in result.outcomes:
        late = [r for r in outcome.trace.records if r.node == "f03" and r.start > 1.0]
        assert late == []
