"""Tests for the iterative (Spark-style) extension."""

import pytest

from repro.core.sizing import BU_MB
from repro.engines import EngineSpec, FlexMapAM
from repro.experiments.clusters import heterogeneous6_cluster
from repro.experiments.iterative import IterativeResult, run_iterative_job
from repro.workloads.puma import puma
from tests.conftest import make_cluster, tiny_job


def het():
    return make_cluster(speeds=(1.0, 1.0, 3.0), slots=2)


def test_runs_requested_iterations():
    r = run_iterative_job(het, tiny_job(input_mb=512.0), "hadoop-64",
                          iterations=3, seed=1)
    assert len(r.iteration_jcts) == 3
    assert len(r.traces) == 3
    assert r.total_s == pytest.approx(sum(r.iteration_jcts))


def test_each_iteration_processes_full_input():
    r = run_iterative_job(het, tiny_job(input_mb=512.0), "flexmap",
                          iterations=3, seed=1)
    for trace in r.traces:
        assert trace.data_processed_mb() == pytest.approx(512.0)


def test_warm_start_skips_ramp():
    cold = run_iterative_job(het, tiny_job(input_mb=2048.0), "flexmap",
                             iterations=3, seed=2, warm_start=False)
    warm = run_iterative_job(het, tiny_job(input_mb=2048.0), "flexmap",
                             iterations=3, seed=2, warm_start=True)
    # First iterations are identical (no state to carry yet)...
    assert warm.iteration_jcts[0] == pytest.approx(cold.iteration_jcts[0])
    # ...but warm later iterations are faster on average.
    assert sum(warm.iteration_jcts[1:]) < sum(cold.iteration_jcts[1:])
    assert warm.ramp_ratio() > 1.0


def test_flexmap_subclass_engine_gets_the_warm_start():
    monitors = []

    class TracedFlexMapAM(FlexMapAM):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self.monitor)

    spec = EngineSpec("flexmap-traced", BU_MB, TracedFlexMapAM)
    run_iterative_job(het, tiny_job(input_mb=1024.0), spec, iterations=3, seed=2)
    assert len(monitors) == 3
    assert len({id(m) for m in monitors}) == 1
    monitors.clear()
    run_iterative_job(het, tiny_job(input_mb=1024.0), spec, iterations=3, seed=2,
                      warm_start=False)
    assert len({id(m) for m in monitors}) == 3


def test_a_carried_monitor_keeps_counting_rounds_across_iterations():
    ams = []

    class ReportingFlexMapAM(FlexMapAM):
        """Logs, per heartbeat, the nodes with a productive container and
        the monitor samples the round added."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.reports = []
            ams.append(self)

        def on_tick(self, round_no):
            productive = {a.node.node_id for a in self.maps.running if a.ips() > 0}
            version = self.monitor.version
            super().on_tick(round_no)
            self.reports.append((round_no, len(productive), self.monitor.version - version))

    spec = EngineSpec("flexmap-reporting", BU_MB, ReportingFlexMapAM)
    run_iterative_job(het, tiny_job(input_mb=1024.0), spec, iterations=3, seed=2)
    (monitor,) = {id(am.monitor): am.monitor for am in ams}.values()
    # Each AM numbers its heartbeats from 1; the carried monitor counts on.
    for am in ams:
        assert [r for r, _, _ in am.reports] == list(range(1, len(am.reports) + 1))
    assert monitor.rounds == sum(len(am.reports) for am in ams)
    assert all(len(am.reports) > 1 for am in ams)
    # Every productive node report became a sample: nothing was dropped.
    assert all(samples == nodes for am in ams for _, nodes, samples in am.reports)
    assert sum(samples for am in ams for _, _, samples in am.reports) > 0


def test_warm_flexmap_beats_stock_total():
    stock = run_iterative_job(heterogeneous6_cluster, puma("WC"), "hadoop-64",
                              iterations=3, seed=2, input_mb=3072.0)
    warm = run_iterative_job(heterogeneous6_cluster, puma("WC"), "flexmap",
                             iterations=3, seed=2, input_mb=3072.0)
    assert warm.total_s < stock.total_s * 1.05


def test_iterations_validated():
    with pytest.raises(ValueError):
        run_iterative_job(het, tiny_job(), "hadoop-64", iterations=0)


def test_ramp_ratio_degenerate():
    r = IterativeResult(engine="x", iteration_jcts=[10.0])
    assert r.ramp_ratio() == 1.0
