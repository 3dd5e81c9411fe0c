"""Failure-injection tests: node crashes mid-job, work is recovered."""

import pytest

from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.engines import run_job
from tests.conftest import make_cluster, tiny_job


def cluster():
    return make_cluster(speeds=(1.0, 1.0, 2.0), slots=2)


@pytest.mark.parametrize("engine", ["hadoop-64", "hadoop-nospec-64", "flexmap", "skewtune-64"])
def test_job_completes_despite_map_phase_failure(engine):
    job = tiny_job(input_mb=1024.0, reducers=2)
    r = run_job(
        cluster, job, engine, seed=4,
        failures=FailureSchedule.single(30.0, "t01"),
    )
    # All input processed exactly once by surviving copies.
    assert r.trace.data_processed_mb() == pytest.approx(1024.0, rel=1e-6)
    # Nothing ran on the dead node after the crash.
    late = [x for x in r.trace.records if x.node == "t01" and x.start > 30.0]
    assert late == []


def test_failure_increases_jct():
    job = tiny_job(input_mb=1024.0, reducers=0)
    clean = run_job(cluster, job, "hadoop-nospec-64", seed=4)
    failed = run_job(
        cluster, job, "hadoop-nospec-64", seed=4,
        failures=FailureSchedule.single(30.0, "t02"),  # lose the fast node
    )
    assert failed.jct > clean.jct


def test_reduce_phase_failure_reruns_reducer():
    job = tiny_job(input_mb=512.0, reducers=4, shuffle=0.5)
    clean = run_job(cluster, job, "hadoop-nospec-64", seed=4)
    # Crash a node well into the reduce phase.
    crash_t = clean.trace.map_phase_end + 20.0
    r = run_job(
        cluster, job, "hadoop-nospec-64", seed=4,
        failures=FailureSchedule.single(crash_t, "t00"),
    )
    finished = {x.task_id for x in r.trace.reduces()}
    assert len(finished) == 4  # every reducer eventually completed
    assert r.jct >= clean.jct


def test_failed_attempts_are_recorded_as_killed():
    job = tiny_job(input_mb=1024.0, reducers=0)
    r = run_job(
        cluster, job, "hadoop-nospec-64", seed=4,
        failures=FailureSchedule.single(30.0, "t00"),
    )
    killed = [x for x in r.trace.records if x.killed and x.node == "t00"]
    assert killed, "the crash should have killed in-flight attempts"


def test_multiple_failures():
    job = tiny_job(input_mb=1024.0, reducers=0)
    r = run_job(
        cluster, job, "flexmap", seed=4,
        failures=FailureSchedule([NodeFailure(25.0, "t00"), NodeFailure(60.0, "t01")]),
    )
    assert r.trace.data_processed_mb() == pytest.approx(1024.0, rel=1e-6)
    survivors = {x.node for x in r.trace.maps() if x.start > 60.0}
    assert survivors <= {"t02"}


def test_failure_validation():
    with pytest.raises(ValueError):
        NodeFailure(-1.0, "x")
    sched = FailureSchedule.single(10.0, "nope")
    job = tiny_job(input_mb=256.0, reducers=0)
    with pytest.raises(KeyError):
        run_job(cluster, job, "hadoop-64", seed=1, failures=sched)


def test_failure_with_speculation_in_flight():
    """Crash the node hosting speculative copies; originals must survive."""
    def spec_cluster():
        return make_cluster(speeds=(2.0, 2.0, 0.25), slots=2)

    job = tiny_job(input_mb=768.0, reducers=0)
    r = run_job(
        spec_cluster, job, "hadoop-64", seed=5,
        failures=FailureSchedule.single(80.0, "t00"),
    )
    assert r.trace.data_processed_mb() == pytest.approx(768.0, rel=1e-6)


# ----------------------------------------------------------------------
# edge cases pinned by the correctness harness
# ----------------------------------------------------------------------
def test_node_fails_twice():
    """A node crashing again (duplicate schedule entries) must not
    re-enqueue anything the second time — checked via BU conservation."""
    from repro.check import InvariantChecker

    job = tiny_job(input_mb=1024.0, reducers=0)
    checker = InvariantChecker()
    r = run_job(
        cluster, job, "flexmap", seed=4,
        failures=FailureSchedule(
            [NodeFailure(30.0, "t01"), NodeFailure(55.0, "t01")]
        ),
        check=checker,
    )
    report = checker.finalize()
    assert report.ok, report.summary()
    assert r.trace.data_processed_mb() == pytest.approx(1024.0, rel=1e-6)


def test_node_fails_twice_at_the_same_instant():
    job = tiny_job(input_mb=512.0, reducers=0)
    r = run_job(
        cluster, job, "hadoop-64", seed=4,
        failures=FailureSchedule(
            [NodeFailure(30.0, "t01"), NodeFailure(30.0, "t01")]
        ),
    )
    assert r.trace.data_processed_mb() == pytest.approx(512.0, rel=1e-6)


def test_failure_after_job_completion_only_marks_node_dead():
    """A crash event firing after the job finished must not resurrect any
    bookkeeping: the AM released everything at job end."""
    from repro.engines import ENGINES
    from repro.hdfs.namenode import NameNode
    from repro.hdfs.placement import RandomPlacement
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams
    from repro.yarn.resource_manager import ResourceManager

    spec = ENGINES["flexmap"]
    sim = Simulator()
    streams = RandomStreams(4)
    c = cluster()
    c.install(sim, streams)
    job = tiny_job(input_mb=256.0, reducers=0)
    namenode = NameNode(
        [n.node_id for n in c.nodes], replication=3,
        policy=RandomPlacement(), rng=streams.stream("placement"),
    )
    namenode.create_file(job.input_file, job.input_mb, spec.block_size_mb)
    rm = ResourceManager(sim, c, rng=streams.stream("rm-offers"))
    am = spec.build(sim, c, rm, namenode, job, streams)
    trace = am.run_to_completion()
    records_before = len(trace.records)

    node = c.node("t02")
    am.on_node_failure(node)

    assert not node.alive
    assert am.job_done
    assert not am.maps.running and not am.reduces.running
    assert len(trace.records) == records_before  # nothing resurrected
    assert am.index is not None and am.index.unprocessed == 0


def test_skewtune_mitigator_requeue_after_failure():
    """Regression for a bug found by ``repro fuzz``: a SkewTune mitigator
    chunk (synthetic negative block id, outside HDFS) lost to a node crash
    was put back into the locality index, polluting it with a block whose
    only replica was the dead node.  Mitigator chunks must return to the
    mitigation queue instead, and the job must still conserve bytes."""
    from repro.check import ScenarioConfig, run_scenario

    config = ScenarioConfig(
        engine="skewtune-64",
        speeds=(1.0, 0.25),
        slots=(1, 1),
        input_mb=64.0,
        reducers=0,
        shuffle_ratio=0.0,
        failures=((42.9, 0),),
    )
    result = run_scenario(config)  # strict: raises on any violation
    assert result.report.ok, result.report.summary()
    assert result.jcts[0] > 42.9  # the crash happened mid-run


def test_skewtune_mitigation_actually_fired_in_regression_config():
    """Companion to the regression above: prove the config exercises the
    mitigator-requeue path (a crash killing a running ``st`` chunk), so the
    regression cannot rot into a vacuous pass."""
    from repro.engines import run_job as run
    from repro.obs import MemoryTraceEmitter, Observability

    def two_node():
        return make_cluster(speeds=(1.0, 0.25), slots=1)

    emitter = MemoryTraceEmitter()
    with Observability(trace=emitter) as obs:
        run(
            two_node, tiny_job(input_mb=64.0, reducers=0, shuffle=0.0),
            "skewtune-64", seed=0,
            failures=FailureSchedule.single(42.9, "t00"),
            obs=obs,
        )
    assert any(e["ev"] == "mitigate" for e in emitter.events)
    st_requeues = [
        e for e in emitter.events
        if e["ev"] == "map_requeue" and str(e.get("task", "")).startswith("st")
    ]
    assert st_requeues, "config no longer exercises the mitigator-requeue path"
