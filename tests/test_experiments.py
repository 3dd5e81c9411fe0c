"""Integration tests for the experiment harness: clusters, runner, engines."""

import pytest

from repro.cluster.interference import CloudInterference
from repro.engines import compare_engines, run_job
from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    three_node_example,
    virtual_cluster,
)
from repro.workloads.puma import puma
from tests.conftest import tiny_job


# ---------------------------------------------------------------------------
# Cluster builders
# ---------------------------------------------------------------------------
def test_physical_cluster_matches_table1():
    c = physical_cluster()
    assert len(c) == 11  # one OptiPlex is the RM/NameNode
    models = {}
    for n in c.nodes:
        models[n.model] = models.get(n.model, 0) + 1
    assert models["OPTIPLEX 990"] == 6
    assert models["PowerEdge T430"] == 1
    assert c.fastest_speed() / c.slowest_speed() == pytest.approx(2.5)


def test_physical_cluster_desktops_have_pressure():
    c = physical_cluster()
    desktops = [n for n in c.nodes if n.model == "OPTIPLEX 990"]
    servers = [n for n in c.nodes if n.model != "OPTIPLEX 990"]
    assert all(n.pressure_prob > 0 for n in desktops)
    assert all(n.pressure_prob == 0 for n in servers)


def test_virtual_cluster_shape():
    c = virtual_cluster()
    assert len(c) == 19
    assert all(n.base_speed == 1.0 for n in c.nodes)
    assert isinstance(c.interference, CloudInterference)


def test_multitenant_cluster_shape():
    c = multitenant_cluster(0.2)
    assert len(c) == 39
    assert c.interference.slow_fraction == 0.2


def test_small_clusters():
    assert len(homogeneous_cluster()) == 6
    assert len(heterogeneous6_cluster()) == 6
    c = three_node_example()
    assert [n.base_speed for n in c.nodes] == [1.0, 1.0, 3.0]
    assert c.total_slots == 3


def test_builders_return_fresh_instances():
    a, b = physical_cluster(), physical_cluster()
    assert a.nodes[0] is not b.nodes[0]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def test_run_job_full_determinism_on_stochastic_cluster():
    a = run_job(virtual_cluster, puma("HR"), "flexmap", seed=6)
    b = run_job(virtual_cluster, puma("HR"), "flexmap", seed=6)
    assert a.jct == b.jct
    assert a.efficiency == b.efficiency
    assert [m.end for m in a.trace.maps()] == [m.end for m in b.trace.maps()]


def test_run_job_input_override():
    r = run_job(homogeneous_cluster, puma("WC"), "hadoop-64", seed=1, input_mb=512.0)
    assert r.job.input_mb == 512.0
    assert len(r.trace.maps()) == 8


def test_run_job_accepts_raw_jobspec():
    r = run_job(homogeneous_cluster, tiny_job(input_mb=256.0), "hadoop-64", seed=1)
    assert r.trace.data_processed_mb() == pytest.approx(256.0)


def test_compare_engines_shared_seed():
    res = compare_engines(
        homogeneous_cluster, tiny_job(input_mb=512.0), ["hadoop-64", "flexmap"], seed=2
    )
    assert set(res) == {"hadoop-64", "flexmap"}
    assert all(r.jct > 0 for r in res.values())


def test_efficiency_in_unit_range():
    r = run_job(heterogeneous6_cluster, puma("HR"), "hadoop-64", seed=1, input_mb=2048.0)
    assert 0.0 < r.efficiency <= 1.0


def test_replication_one_forces_remote_reads():
    r = run_job(
        heterogeneous6_cluster, tiny_job(input_mb=1024.0), "hadoop-64",
        seed=1, replication=1,
    )
    assert r.trace.data_processed_mb() == pytest.approx(1024.0)


def test_summary_renders():
    r = run_job(homogeneous_cluster, tiny_job(), "hadoop-64", seed=1)
    s = r.summary()
    assert "hadoop-64" in s and "JCT" in s


# ---------------------------------------------------------------------------
# Paper-shape integration checks (small inputs for speed)
# ---------------------------------------------------------------------------
def test_flexmap_beats_stock_on_physical_cluster():
    job = puma("WC")
    flex = [run_job(physical_cluster, job, "flexmap", seed=s, input_mb=8192.0).jct
            for s in (1, 2, 3)]
    stock = [run_job(physical_cluster, job, "hadoop-64", seed=s, input_mb=8192.0).jct
             for s in (1, 2, 3)]
    assert sum(flex) < sum(stock)


def test_flexmap_improves_efficiency_on_physical_cluster():
    job = puma("WC")
    flex = [run_job(physical_cluster, job, "flexmap", seed=s, input_mb=8192.0).efficiency
            for s in (1, 2, 3)]
    stock = [run_job(physical_cluster, job, "hadoop-64", seed=s, input_mb=8192.0).efficiency
             for s in (1, 2, 3)]
    assert sum(flex) > sum(stock)


def test_fig2_static_binding_underuses_fast_node():
    """Fig. 2: 3 nodes at 1:1:3 capacity, stock Hadoop with one-block tasks
    completes work in a ratio far from capacity on the fast node."""
    job = tiny_job(input_mb=4 * 64.0, reducers=0)
    r = run_job(three_node_example, job, "hadoop-nospec-64", seed=3)
    maps = r.trace.maps()
    fast_share = sum(m.processed_mb for m in maps if m.node == "fast") / (4 * 64.0)
    # Capacity share of the fast node is 3/5 = 0.6; static binding with only
    # 4 coarse tasks cannot reach it.
    assert fast_share <= 0.55


# ---------------------------------------------------------------------------
# parallel seed sweeps
# ---------------------------------------------------------------------------
def test_seed_sweep_parallel_matches_serial():
    """jobs>1 fans seeds over processes; statistics must be bit-identical
    to the serial path (results merged back in seed order)."""
    import functools

    from repro.experiments.stats import seed_sweep
    from tests.conftest import make_cluster

    factory = functools.partial(make_cluster, (1.0, 2.0))
    job = tiny_job(input_mb=256.0)
    serial = seed_sweep(factory, job, "hadoop-64", seeds=[1, 2, 3], jobs=1)
    par = seed_sweep(factory, job, "hadoop-64", seeds=[1, 2, 3], jobs=3)
    assert [r.jct for r in par.runs] == [r.jct for r in serial.runs]
    assert [r.seed for r in par.runs] == [1, 2, 3]
    assert par.jct == serial.jct
    assert par.efficiency == serial.efficiency
    # Workers strip the unpicklable AM handle; serial keeps it.
    assert all(r.am is None for r in par.runs)
    assert all(r.am is not None for r in serial.runs)


def test_seed_sweep_rejects_bad_jobs():
    from repro.experiments.stats import seed_sweep
    from tests.conftest import make_cluster

    with pytest.raises(ValueError):
        seed_sweep(make_cluster, tiny_job(), "hadoop-64", seeds=[1], jobs=0)
    with pytest.raises(ValueError):
        seed_sweep(make_cluster, tiny_job(), "hadoop-64", seeds=[])
