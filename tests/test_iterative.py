"""Tests for the iterative (Spark-style) extension."""

import pytest

from repro.core.sizing import SizingConfig
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

    spec = EngineSpec("flexmap-traced", SizingConfig().bu_mb, TracedFlexMapAM)
    run_iterative_job(het, tiny_job(input_mb=1024.0), spec, iterations=3, seed=2)
    assert len(monitors) == 3
    assert len({id(m) for m in monitors}) == 1
    monitors.clear()
    run_iterative_job(het, tiny_job(input_mb=1024.0), spec, iterations=3, seed=2,
                      warm_start=False)
    assert len({id(m) for m in monitors}) == 3


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
