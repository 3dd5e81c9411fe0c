"""Unit tests for nodes, machine catalog, topology, interference, network."""

import numpy as np
import pytest

from repro.cluster import interference, node
from repro.cluster.interference import (
    CloudInterference,
    MultiTenantInterference,
    NoInterference,
)
from repro.cluster.machines import MACHINE_CATALOG, total_machines
from repro.cluster.network import GIGABIT, TEN_GIGABIT, NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from tests.conftest import make_cluster


# ---------------------------------------------------------------------------
# Node
# ---------------------------------------------------------------------------
def test_effective_speed_combines_base_and_interference():
    n = Node("n", base_speed=2.0)
    assert n.effective_speed == 2.0
    n.set_interference(0.5)
    assert n.effective_speed == 1.0


def test_rate_listener_notified_on_change():
    n = Node("n", base_speed=2.0)
    seen = []
    n.add_rate_listener(seen.append)
    n.set_interference(0.25)
    assert seen == [0.5]
    n.set_interference(0.25)  # no change, no notification
    assert seen == [0.5]


def test_remove_rate_listener():
    n = Node("n")
    seen = []
    n.add_rate_listener(seen.append)
    n.remove_rate_listener(seen.append)
    n.set_interference(0.5)
    assert seen == []


def test_slot_accounting():
    n = Node("n", slots=2)
    n.acquire_slot()
    n.acquire_slot()
    assert n.free_slots == 0
    with pytest.raises(RuntimeError):
        n.acquire_slot()
    n.release_slot()
    assert n.free_slots == 1
    n.release_slot()
    with pytest.raises(RuntimeError):
        n.release_slot()


def test_node_validation():
    with pytest.raises(ValueError):
        Node("n", base_speed=0.0)
    with pytest.raises(ValueError):
        Node("n", slots=0)
    with pytest.raises(ValueError):
        Node("n", pressure_prob=1.5)
    n = Node("n")
    with pytest.raises(ValueError):
        n.set_interference(0.0)


def test_work_noise_mean_near_one():
    n = Node("n", exec_sigma=0.1)
    rng = np.random.default_rng(0)
    samples = [n.sample_work_noise(rng) for _ in range(4000)]
    assert np.mean(samples) == pytest.approx(1.0, abs=0.02)


def test_work_noise_pressure_inflates(monkeypatch):
    monkeypatch.setattr(node, "PRESSURE_RANGE", (2.0, 2.0))
    calm = Node("a", exec_sigma=0.0)
    pressured = Node("b", exec_sigma=0.0, pressure_prob=1.0)
    rng = np.random.default_rng(0)
    assert calm.sample_work_noise(rng) == 1.0
    assert pressured.sample_work_noise(rng) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Machine catalog (Table I)
# ---------------------------------------------------------------------------
def test_catalog_matches_table1():
    assert total_machines() == 12
    by_model = {m.model: m for m in MACHINE_CATALOG}
    assert by_model["OPTIPLEX 990"].count == 7
    assert by_model["PowerEdge T430"].memory_gb == 128
    # The desktops anchor relative speed 1.0; servers are faster.
    assert by_model["OPTIPLEX 990"].speed == 1.0
    assert all(m.speed >= 1.0 for m in MACHINE_CATALOG)


# ---------------------------------------------------------------------------
# Cluster topology
# ---------------------------------------------------------------------------
def test_cluster_slots_and_speeds():
    c = make_cluster(speeds=(1.0, 2.0), slots=3)
    assert c.total_slots == 6
    assert c.slowest_speed() == 1.0
    assert c.fastest_speed() == 2.0


def test_cluster_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Cluster([])
    n = Node("x")
    with pytest.raises(ValueError):
        Cluster([n, Node("x")])


def test_cluster_lookup():
    c = make_cluster()
    assert c.node("t00").node_id == "t00"
    assert "t00" in c and "zzz" not in c
    assert len(c) == 3


# ---------------------------------------------------------------------------
# Interference models
# ---------------------------------------------------------------------------
def test_no_interference_is_noop():
    c = make_cluster()
    NoInterference().install(Simulator(), c.nodes, RandomStreams(0))
    assert all(n.effective_speed == n.base_speed for n in c.nodes)


def test_multitenant_slows_requested_fraction(monkeypatch):
    monkeypatch.setattr(interference, "SLOW_FACTOR", 0.5)
    nodes = [Node(f"n{i}") for i in range(20)]
    m = MultiTenantInterference(slow_fraction=0.25)
    m.install(Simulator(), nodes, RandomStreams(3))
    slowed = [n for n in nodes if n.effective_speed < 1.0]
    assert len(slowed) == 5
    assert all(n.effective_speed == 0.5 for n in slowed)
    assert sorted(m.slowed_nodes) == sorted(n.node_id for n in slowed)


def test_multitenant_zero_fraction():
    nodes = [Node(f"n{i}") for i in range(4)]
    MultiTenantInterference(0.0).install(Simulator(), nodes, RandomStreams(0))
    assert all(n.effective_speed == 1.0 for n in nodes)


def test_multitenant_reproducible():
    def pick(seed):
        nodes = [Node(f"n{i}") for i in range(20)]
        m = MultiTenantInterference(0.3)
        m.install(Simulator(), nodes, RandomStreams(seed))
        return m.slowed_nodes

    assert pick(5) == pick(5)


def test_cloud_interference_changes_speeds_over_time(monkeypatch):
    monkeypatch.setattr(interference, "BUSY_FRACTION", 0.4)
    monkeypatch.setattr(interference, "MEAN_CLEAN_S", 50.0)
    sim = Simulator()
    nodes = [Node(f"n{i}") for i in range(30)]
    CloudInterference().install(sim, nodes, RandomStreams(1))
    sim.run(until=500.0)
    # After several dwell periods some nodes must be interfered.
    interfered = [n for n in nodes if n.effective_speed < 1.0]
    assert 0 < len(interfered) < len(nodes)


def test_cloud_interference_long_run_fraction(monkeypatch):
    monkeypatch.setattr(interference, "MEAN_CLEAN_S", 40.0)
    sim = Simulator()
    nodes = [Node(f"n{i}") for i in range(60)]
    CloudInterference().install(sim, nodes, RandomStreams(2))
    samples = []

    def probe():
        samples.append(sum(1 for n in nodes if n.effective_speed < 1.0) / len(nodes))

    for t in range(50, 2000, 50):
        sim.schedule_at(float(t), probe)
    sim.run(until=2000.0)
    assert np.mean(samples) == pytest.approx(0.45, abs=0.12)


def test_interference_validation():
    with pytest.raises(ValueError):
        MultiTenantInterference(slow_fraction=1.5)


# ---------------------------------------------------------------------------
# Network model
# ---------------------------------------------------------------------------
def test_network_transfer_times():
    net = NetworkModel(remote_read_mbps=100.0, shuffle_mbps=50.0)
    assert net.remote_read_time(200.0) == 2.0
    assert net.shuffle_time(100.0) == 2.0
    assert net.remote_read_time(0.0) == 0.0


def test_network_validation():
    with pytest.raises(ValueError):
        NetworkModel(remote_read_mbps=0.0)
    net = NetworkModel()
    with pytest.raises(ValueError):
        net.remote_read_time(-1.0)
    with pytest.raises(ValueError):
        net.shuffle_time(-1.0)


def test_gigabit_slower_than_ten_gigabit():
    assert GIGABIT.remote_read_time(100.0) > TEN_GIGABIT.remote_read_time(100.0)
