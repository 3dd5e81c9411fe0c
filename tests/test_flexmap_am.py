"""End-to-end tests of the FlexMap engine on small controlled clusters."""

import pytest

from repro.engines import EngineSpec, run_job
from repro.engines.flexmap import FlexMapAM
from tests.conftest import make_cluster, tiny_job


def het_cluster():
    return make_cluster(speeds=(1.0, 1.0, 3.0), slots=2)


def run_flexmap(job=None, cluster=het_cluster, seed=3, **engine_kwargs):
    spec = EngineSpec("flexmap", 8.0, FlexMapAM, engine_kwargs) if engine_kwargs else "flexmap"
    return run_job(cluster, job or tiny_job(input_mb=2048.0), spec, seed=seed)


def test_flexmap_processes_all_input():
    r = run_flexmap()
    assert r.trace.data_processed_mb() == pytest.approx(2048.0)


def test_flexmap_tasks_are_multi_bu():
    r = run_flexmap()
    sizes = [m.num_bus for m in r.trace.maps()]
    assert max(sizes) > 1, "vertical scaling never grew any task"
    assert min(sizes) >= 1


def test_flexmap_first_tasks_are_one_bu():
    """Every node starts at one BU (Algorithm 1 init)."""
    r = run_flexmap()
    first_wave = sorted(r.trace.maps(), key=lambda m: m.start)[: r.am.cluster.total_slots]
    assert all(m.num_bus == 1 for m in first_wave)


def test_flexmap_fast_node_gets_bigger_tasks():
    r = run_flexmap()
    maps = r.trace.maps()
    fast = [m.num_bus for m in maps if m.node == "t02"]
    slow = [m.num_bus for m in maps if m.node in ("t00", "t01")]
    assert max(fast) > max(slow), (
        f"horizontal scaling failed: fast max {max(fast)} <= slow max {max(slow)}"
    )
    # Data share: the 3x node should process well over its uniform 1/3 share.
    fast_mb = sum(m.processed_mb for m in maps if m.node == "t02")
    assert fast_mb / 2048.0 > 0.45


def test_flexmap_growth_is_monotone_ish_on_clean_cluster():
    """On a static cluster, per-node task sizes never shrink below 1 and the
    size unit only grows until frozen."""
    r = run_flexmap()
    log = r.am.sizing_log
    assert log, "sizing log empty"
    for node in {e[1] for e in log}:
        series = [(bus, alg1) for (_, n, bus, alg1, _) in log if n == node]
        assert all(b >= 1 and alg1 >= b for b, alg1 in series)


def test_flexmap_productivity_improves_over_phase():
    r = run_flexmap(job=tiny_job(input_mb=4096.0))
    maps = sorted(r.trace.maps(), key=lambda m: m.end)
    early = [m.productivity for m in maps[:6]]
    late = [m.productivity for m in maps[-6:]]
    assert sum(late) / len(late) > sum(early) / len(early)


def test_flexmap_reduce_bias_prefers_fast_nodes():
    job = tiny_job(input_mb=2048.0, reducers=8, shuffle=0.4)
    r = run_flexmap(job=job)
    reduces = r.trace.reduces()
    on_fast = sum(1 for x in reduces if x.node == "t02")
    # The fast node is 1 of 3 nodes but should host well over 1/3 of reducers.
    assert on_fast / len(reduces) > 0.4


def test_flexmap_no_reduce_bias_ablation():
    job = tiny_job(input_mb=2048.0, reducers=8, shuffle=0.4)
    r = run_flexmap(job=job, reduce_bias=False)
    assert len(r.trace.reduces()) == 8  # still completes


def test_flexmap_vertical_ablation_keeps_tasks_small():
    r = run_flexmap(vertical_scaling=False, horizontal_scaling=False)
    assert all(m.num_bus == 1 for m in r.trace.maps())


def test_flexmap_horizontal_ablation_sizes_by_productivity_only():
    r = run_flexmap(horizontal_scaling=False)
    maps = r.trace.maps()
    fast = max(m.num_bus for m in maps if m.node == "t02")
    slow = max(m.num_bus for m in maps if m.node != "t02")
    # Without horizontal scaling the fast node can still grow vertically
    # (lower productivity per wave? no - faster compute means *lower*
    # productivity at equal size, so it grows at least as large).
    assert fast >= 1 and slow >= 1


def test_flexmap_determinism():
    a = run_flexmap(seed=9)
    b = run_flexmap(seed=9)
    assert a.jct == b.jct
    assert [m.num_bus for m in a.trace.maps()] == [m.num_bus for m in b.trace.maps()]


def test_flexmap_beats_stock_on_heterogeneous_cluster():
    """The headline claim at miniature scale: a 3x-heterogeneous cluster."""
    job = tiny_job(input_mb=4096.0)
    flex = run_job(het_cluster, job, "flexmap", seed=4)
    stock = run_job(het_cluster, job, "hadoop-64", seed=4)
    assert flex.jct < stock.jct * 1.02


def test_flexmap_efficiency_exceeds_stock():
    job = tiny_job(input_mb=4096.0)
    flex = run_job(het_cluster, job, "flexmap", seed=4)
    stock = run_job(het_cluster, job, "hadoop-64", seed=4)
    assert flex.efficiency > stock.efficiency * 0.95


def test_flexmap_sizing_log_matches_trace():
    r = run_flexmap()
    assert len(r.am.sizing_log) == len(r.trace.maps())


def test_flexmap_custom_bu_size():
    spec = EngineSpec("flexmap-16", 16.0, FlexMapAM, {"bu_mb": 16.0})
    r = run_job(het_cluster, tiny_job(input_mb=1024.0), spec, seed=3)
    assert r.trace.data_processed_mb() == pytest.approx(1024.0)


def test_flexmap_map_only_job():
    r = run_flexmap(job=tiny_job(input_mb=1024.0, reducers=0))
    assert r.trace.reduces() == []
    assert r.jct > 0


def test_flexmap_single_node_cluster():
    r = run_job(lambda: make_cluster(speeds=(1.0,), slots=2),
                tiny_job(input_mb=512.0), "flexmap", seed=3)
    assert r.trace.data_processed_mb() == pytest.approx(512.0)


def test_flexmap_speculation_rescues_midflight_slowdown():
    """A node that slows 10x after dispatch strands a grown task; the
    underlying YARN speculator should back it up."""
    from repro.cluster.interference import InterferenceModel

    class LateHit(InterferenceModel):
        def install(self, sim, nodes, streams):
            sim.schedule(60.0, lambda: nodes[2].set_interference(0.1))

    def cluster():
        c = make_cluster(speeds=(1.0, 1.0, 3.0), slots=2)
        c.interference = LateHit()
        return c

    r = run_job(cluster, tiny_job(input_mb=2048.0, reducers=0), "flexmap", seed=3)
    assert r.trace.data_processed_mb() == pytest.approx(2048.0)
