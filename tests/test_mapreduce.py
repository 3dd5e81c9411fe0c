"""Unit tests for the MapReduce job model: jobs, splits, attempts, shuffle."""

import math

import pytest

from repro.cluster.node import Node
from repro.hdfs.block import Block
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.job import JobSpec
from repro.mapreduce.shuffle import IntermediateStore
from repro.mapreduce.split import InputSplit
from repro.sim.engine import Simulator


def blk(i, size=8.0, replicas=("a",), cost=1.0):
    return Block(i, "f", size, replicas=replicas, cost_factor=cost)


# ---------------------------------------------------------------------------
# JobSpec
# ---------------------------------------------------------------------------
def test_jobspec_derived_quantities():
    j = JobSpec("j", input_mb=1000.0, shuffle_ratio=0.2, num_reducers=4)
    assert not j.map_only
    assert JobSpec("j", 100.0, num_reducers=0).map_only
    assert JobSpec("j", 100.0, shuffle_ratio=0.0).map_only


def test_jobspec_scaled():
    j = JobSpec("j", input_mb=100.0)
    k = j.scaled(500.0)
    assert k.input_mb == 500.0 and k.name == "j"
    assert j.input_mb == 100.0  # original untouched


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec("j", input_mb=0.0)
    with pytest.raises(ValueError):
        JobSpec("j", 1.0, map_cost_s_per_mb=0.0)
    with pytest.raises(ValueError):
        JobSpec("j", 1.0, shuffle_ratio=-0.1)
    with pytest.raises(ValueError):
        JobSpec("j", 1.0, num_reducers=-1)


# ---------------------------------------------------------------------------
# InputSplit
# ---------------------------------------------------------------------------
def test_split_aggregates():
    s = InputSplit(local_blocks=[blk(0), blk(1)], remote_blocks=[blk(2, cost=2.0)])
    assert s.num_bus == 3
    assert s.size_mb == 24.0
    assert s.work_mb == 32.0  # 8 + 8 + 16
    assert s.local_mb == 16.0
    assert s.remote_mb == 8.0


@pytest.mark.parametrize("n_local, n_remote", [(3, 0), (0, 4), (2, 3)])
def test_split_stores_its_per_block_sums(n_local, n_remote):
    # Sizes that do not add up exactly in floating point, so the stored
    # sums must follow the per-block order.
    local = [blk(i, size=0.1 * (i + 1), cost=1.3) for i in range(n_local)]
    remote = [
        blk(10 + i, size=0.7 + 0.01 * i, replicas=("b",), cost=0.9)
        for i in range(n_remote)
    ]
    s = InputSplit(local_blocks=local, remote_blocks=remote)
    blocks = local + remote
    assert s.blocks == blocks
    assert s.num_bus == n_local + n_remote
    assert s.size_mb == sum(b.size_mb for b in blocks)
    assert s.work_mb == sum(b.work_mb for b in blocks)
    assert s.local_mb == sum(b.size_mb for b in local)
    assert s.remote_mb == sum(b.size_mb for b in remote)


def test_split_for_node_classifies():
    blocks = [blk(0, replicas=("a",)), blk(1, replicas=("b",)), blk(2, replicas=("a", "b"))]
    s = InputSplit.for_node(blocks, "a")
    assert {b.block_id for b in s.local_blocks} == {0, 2}
    assert {b.block_id for b in s.remote_blocks} == {1}


def test_empty_split_rejected():
    with pytest.raises(ValueError):
        InputSplit()


# ---------------------------------------------------------------------------
# TaskAttempt
# ---------------------------------------------------------------------------
def make_attempt(sim, node=None, **kw):
    node = node or Node("n", base_speed=1.0, exec_sigma=0.0)
    done = []
    defaults = dict(
        task_id="m1",
        kind="map",
        size_mb=64.0,
        work_s=40.0,
        overhead_s=10.0,
        transfer_s=0.0,
        on_complete=lambda a: done.append(sim.now),
    )
    defaults.update(kw)
    return TaskAttempt(sim, node, **defaults), done, node


def test_attempt_phases_and_timing(sim):
    attempt, done, _ = make_attempt(sim)
    assert attempt.phase == "startup"
    sim.run()
    assert done == [50.0]  # 10 overhead + 40 compute
    assert attempt.record.runtime == 50.0
    assert attempt.record.effective == pytest.approx(40.0)
    assert attempt.record.productivity == pytest.approx(0.8)
    assert attempt.record.processed_mb == 64.0


def test_attempt_with_transfer(sim):
    attempt, done, _ = make_attempt(sim, transfer_s=5.0)
    sim.run()
    assert done == [55.0]
    # effective includes the remote read, per the paper's definition
    assert attempt.record.effective == pytest.approx(45.0)


def test_attempt_speed_change_midway(sim):
    attempt, done, node = make_attempt(sim)
    sim.schedule(30.0, lambda: node.set_interference(0.5))
    sim.run()
    # 10s overhead, 20s at speed 1 (20 work), then 20 work at 0.5 -> 40s
    assert done == [pytest.approx(70.0)]


def test_attempt_kill_discards(sim):
    attempt, done, _ = make_attempt(sim)
    sim.schedule(20.0, attempt.kill)
    sim.run()
    assert done == []
    assert attempt.record.killed
    assert attempt.record.processed_mb == 0.0
    assert attempt.record.end == 20.0


def test_attempt_stop_early_commits_partial(sim):
    attempt, done, _ = make_attempt(sim)
    got = []
    sim.schedule(30.0, lambda: got.append(attempt.stop_early()))
    sim.run()
    assert done == []
    assert not attempt.record.killed
    # 20s of compute at rate 1 over 40 work = 50% of 64 MB
    assert got == [pytest.approx(32.0)]
    assert attempt.record.processed_mb == pytest.approx(32.0)


def test_attempt_progress_and_ips(sim):
    attempt, _, _ = make_attempt(sim)
    probes = []
    sim.schedule(5.0, lambda: probes.append((attempt.progress(), attempt.ips())))
    sim.schedule(30.0, lambda: probes.append((attempt.progress(), attempt.ips())))
    sim.run()
    assert probes[0] == (0.0, 0.0)  # still in startup
    p, ips = probes[1]
    assert p == pytest.approx(0.5)
    assert ips == pytest.approx(64.0 * 0.5 / 30.0)  # eq. (3): runtime includes overhead


def test_attempt_est_time_left(sim):
    attempt, _, _ = make_attempt(sim)
    probes = []
    sim.schedule(30.0, lambda: probes.append(attempt.est_time_left()))
    sim.run()
    # progress 0.5 at t=30 -> rate 1/60 -> 30s left by LATE's estimate
    assert probes[0] == pytest.approx(30.0)
    assert math.isinf(TaskAttempt(
        sim, Node("x"), task_id="t", kind="map", size_mb=1, work_s=1, overhead_s=100
    ).est_time_left())


def test_attempt_kill_during_startup(sim):
    attempt, done, _ = make_attempt(sim)
    sim.schedule(3.0, attempt.kill)
    sim.run()
    assert done == []
    assert attempt.record.effective == 0.0


def test_attempt_double_kill_safe(sim):
    attempt, _, _ = make_attempt(sim)
    sim.schedule(3.0, attempt.kill)
    sim.schedule(4.0, attempt.kill)
    sim.run()
    assert attempt.killed


def test_attempt_validation(sim):
    with pytest.raises(ValueError):
        TaskAttempt(sim, Node("n"), task_id="t", kind="map", size_mb=-1, work_s=1,
                    overhead_s=1)


# ---------------------------------------------------------------------------
# IntermediateStore
# ---------------------------------------------------------------------------
def test_store_fractions():
    s = IntermediateStore()
    s.add("a", 30.0)
    s.add("b", 10.0)
    s.add("a", 20.0)
    assert s.total_mb == 60.0
    assert s.node_fraction("a") == pytest.approx(50.0 / 60.0)
    assert s.node_fraction("c") == 0.0
    assert s.node_fraction("b") == pytest.approx(10.0 / 60.0)


def test_store_reducer_share_and_cross():
    s = IntermediateStore()
    s.add("a", 80.0)
    s.add("b", 20.0)
    share = s.reducer_share_mb(4)
    assert share == 25.0
    assert s.cross_node_mb("a", share) == pytest.approx(25.0 * 0.2)
    assert s.cross_node_mb("c", share) == pytest.approx(25.0)


def test_store_validation():
    s = IntermediateStore()
    with pytest.raises(ValueError):
        s.add("a", -1.0)
    with pytest.raises(ValueError):
        s.reducer_share_mb(0)
    with pytest.raises(ValueError):
        s.cross_node_mb("a", -5.0)


def test_store_zero_volume_add_ignored():
    s = IntermediateStore()
    s.add("a", 0.0)
    assert s.total_mb == 0.0
    assert s.node_fraction("a") == 0.0
