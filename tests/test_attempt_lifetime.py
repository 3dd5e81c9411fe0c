"""A task attempt is freed by reference counting once the AM drops it.

No task attempt, compute process (``VariableRateWork``) or event handle bound
to either may sit in a reference cycle: with the cycle collector off, none
of them may outlive the run that made it, even while the run's result (and
with it the AM, trace and simulator) is still held.  Each scenario covers
one way an attempt ends: it finishes, loses a LATE race, dies with its node
in the startup, transfer or compute phase, or is stopped early by SkewTune.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster.failures import FailureSchedule
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.engines import run_job
from repro.mapreduce.attempt import TaskAttempt
from repro.sim import engine
from repro.sim.work import VariableRateWork
from tests.conftest import make_cluster, tiny_job


def slow_network_cluster() -> Cluster:
    """Three nodes on a 5 MB/s fabric, so reducers spend seconds fetching."""
    nodes = [
        Node(f"t{i:02d}", base_speed=s, slots=2, exec_sigma=0.0)
        for i, s in enumerate((1.0, 1.0, 2.0))
    ]
    network = NetworkModel(remote_read_mbps=5.0, shuffle_mbps=5.0)
    return Cluster(nodes, network=network, name="slow-network")


def straggler_cluster() -> Cluster:
    return make_cluster(speeds=(2.0, 2.0, 0.2))


SHUFFLE_JOB = tiny_job(input_mb=512.0, reducers=4, shuffle=0.5)
RACE_JOB = tiny_job(input_mb=1024.0, reducers=2)

#: name -> (cluster, job, engine, crash (time, node) or None, the
#: (kind, phase at termination, output discarded) of every attempt the
#: run terminates).
SCENARIOS = {
    "finished": (slow_network_cluster, SHUFFLE_JOB, "hadoop-nospec-64", None, set()),
    "late-loser": (straggler_cluster, RACE_JOB, "hadoop-64", None, {("map", "compute", True)}),
    "crash-startup": (
        slow_network_cluster, SHUFFLE_JOB, "hadoop-nospec-64", (1.0, "t02"),
        {("map", "startup", True)},
    ),
    "crash-transfer": (
        slow_network_cluster, SHUFFLE_JOB, "hadoop-nospec-64", (77.0, "t01"),
        {("reduce", "transfer", True)},
    ),
    "crash-compute": (
        slow_network_cluster, SHUFFLE_JOB, "hadoop-nospec-64", (20.0, "t02"),
        {("map", "compute", True)},
    ),
    "skewtune-stop-early": (
        straggler_cluster, RACE_JOB, "skewtune-64", None, {("map", "compute", False)},
    ),
}


class TrackedHandle(engine.EventHandle):
    """An event handle that can be weakly referenced."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def tracked(monkeypatch):
    """Weak sets of the attempts, work processes and attempt/work handles
    made while the collector is off, plus how each attempt was ended."""
    live = {
        "attempts": weakref.WeakSet(),
        "works": weakref.WeakSet(),
        "handles": weakref.WeakSet(),
    }
    made = dict.fromkeys(live, 0)
    ended: list[tuple[str, str, bool]] = []

    def tracking(cls, key):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if key != "handles" or isinstance(
                getattr(self.callback, "__self__", None), (TaskAttempt, VariableRateWork)
            ):
                live[key].add(self)
                made[key] += 1

        monkeypatch.setattr(cls, "__init__", __init__)

    tracking(TaskAttempt, "attempts")
    tracking(VariableRateWork, "works")
    tracking(TrackedHandle, "handles")
    monkeypatch.setattr(engine, "EventHandle", TrackedHandle)

    terminate = TaskAttempt._terminate

    def _terminate(self, discard, processed=0.0):
        if not (self.finished or self.killed):
            ended.append((self.kind, self.phase, discard))
        terminate(self, discard, processed)

    monkeypatch.setattr(TaskAttempt, "_terminate", _terminate)

    enabled = gc.isenabled()
    gc.disable()
    try:
        yield live, made, ended
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_attempt_outlives_its_run_without_the_cycle_collector(name, tracked):
    live, made, ended = tracked
    cluster, job, engine_name, crash, endings = SCENARIOS[name]
    failures = FailureSchedule.single(*crash) if crash else None
    result = run_job(cluster, job, engine_name, seed=4, failures=failures)

    assert result.am.job_done
    assert set(ended) == endings
    assert result.trace.maps() and result.trace.reduces()
    assert all(n > 0 for n in made.values())
    assert not gc.isenabled()
    leaked = {key: len(objs) for key, objs in live.items() if len(objs)}
    assert leaked == {}
