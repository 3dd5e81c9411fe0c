"""End-to-end property tests: random small configurations must satisfy the
system invariants regardless of engine, topology or job shape."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.engines import run_job
from repro.experiments.stats import SweepStats, compare_sweep, seed_sweep
from repro.mapreduce.job import JobSpec
from tests.conftest import make_cluster, tiny_job

ENGINES = ["hadoop-64", "hadoop-nospec-64", "skewtune-64", "flexmap"]

config_strategy = st.fixed_dictionaries(
    {
        "engine": st.sampled_from(ENGINES),
        "speeds": st.lists(
            st.floats(min_value=0.25, max_value=4.0), min_size=1, max_size=5
        ),
        "slots": st.integers(1, 4),
        "input_mb": st.floats(min_value=16.0, max_value=1536.0),
        "reducers": st.integers(0, 6),
        "shuffle": st.floats(min_value=0.0, max_value=1.0),
        "replication": st.integers(1, 3),
        "seed": st.integers(0, 100),
    }
)


@given(config_strategy)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_configs_satisfy_invariants(cfg):
    def cluster():
        nodes = [
            Node(f"p{i:02d}", base_speed=s, slots=cfg["slots"], exec_sigma=0.05)
            for i, s in enumerate(cfg["speeds"])
        ]
        return Cluster(nodes, network=NetworkModel())

    job = JobSpec(
        name="prop",
        input_mb=cfg["input_mb"],
        map_cost_s_per_mb=0.625,
        shuffle_ratio=cfg["shuffle"],
        reduce_cost_s_per_mb=0.25,
        num_reducers=cfg["reducers"],
        input_file="prop-input",
    )
    r = run_job(cluster, job, cfg["engine"], seed=cfg["seed"],
                replication=cfg["replication"])
    t = r.trace

    # 1. Every byte of input is processed exactly once.
    assert t.data_processed_mb() == pytest.approx(cfg["input_mb"], rel=1e-6)
    # 2. Milestones are ordered.
    assert t.submit_time <= t.map_phase_start < t.map_phase_end <= t.finish_time
    # 3. At most one surviving copy per map task id.
    finished = {}
    for rec in t.records:
        if rec.kind == "map" and not rec.killed and rec.processed_mb > 0:
            finished.setdefault(rec.task_id, 0)
            finished[rec.task_id] += 1
    assert all(v == 1 for v in finished.values())
    # 4. Reducers: every partition completed exactly once (if any).
    if not job.map_only:
        done_ids = {x.task_id for x in t.reduces()}
        assert len(done_ids) == job.num_reducers
    # 5. Efficiency is a valid fraction.
    assert 0.0 < r.efficiency <= 1.0 + 1e-9
    # 6. Concurrency never exceeds the slot count.
    events = []
    for rec in t.records:
        if rec.end > rec.start:
            events.append((rec.start, 1))
            events.append((rec.end, -1))
    events.sort()
    running = 0
    cap = len(cfg["speeds"]) * cfg["slots"]
    for _, d in events:
        running += d
        assert running <= cap


@given(st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_determinism_property(seed_a, seed_b):
    """Equal seeds -> identical traces; the converse is likely too."""
    job = tiny_job(input_mb=256.0)
    a = run_job(lambda: make_cluster(), job, "flexmap", seed=seed_a)
    b = run_job(lambda: make_cluster(), job, "flexmap", seed=seed_b)
    if seed_a == seed_b:
        assert a.jct == b.jct
        assert [(m.task_id, m.end) for m in a.trace.records] == [
            (m.task_id, m.end) for m in b.trace.records
        ]


# ---------------------------------------------------------------------------
# experiments.stats
# ---------------------------------------------------------------------------
def test_sweep_stats_summary():
    s = SweepStats.of([1.0, 2.0, 3.0])
    assert s.mean == 2.0 and s.lo == 1.0 and s.hi == 3.0 and s.n == 3
    assert s.ci95_halfwidth() > 0
    with pytest.raises(ValueError):
        SweepStats.of([])


def test_seed_sweep_runs_all_seeds():
    r = seed_sweep(lambda: make_cluster(), tiny_job(input_mb=256.0),
                   "hadoop-64", seeds=[1, 2, 3])
    assert len(r.runs) == 3
    assert r.jct.lo <= r.jct.mean <= r.jct.hi


def test_compare_sweep_normalizes():
    out = compare_sweep(
        lambda: make_cluster(), tiny_job(input_mb=256.0),
        ["hadoop-64", "flexmap"], seeds=[1, 2], baseline="hadoop-64",
    )
    assert out["hadoop-64"]["jct_normalized"] == pytest.approx(1.0)
    assert set(out) == {"hadoop-64", "flexmap"}


def test_seed_sweep_validation():
    with pytest.raises(ValueError):
        seed_sweep(lambda: make_cluster(), tiny_job(), "hadoop-64", seeds=[])
