"""Unit tests for workload specs (Table II), skew models, and metrics."""

import numpy as np
import pytest

from repro.metrics import stats
from repro.metrics.efficiency import job_efficiency, serial_runtime
from repro.metrics.stats import (
    Summary,
    normalized_runtime_pdf,
    straggler_ratio,
    tail_slowdown_fraction,
)
from repro.sim.trace import JobTrace, TaskRecord
from repro.workloads.puma import FIGURE_ORDER, PUMA_BENCHMARKS, puma
from repro.workloads.skew import LognormalSkew, NoSkew
from repro.workloads.spec import WorkloadSpec


# ---------------------------------------------------------------------------
# PUMA / Table II
# ---------------------------------------------------------------------------
def test_puma_has_eight_benchmarks():
    assert len(PUMA_BENCHMARKS) == 8
    assert set(FIGURE_ORDER) == {w.abbrev for w in PUMA_BENCHMARKS}


def test_table2_input_sizes():
    assert puma("WC").small_gb == 20 and puma("WC").large_gb == 256
    assert puma("TS").small_gb == 10 and puma("TS").large_gb == 128
    assert puma("HM").large_gb == 128
    assert puma("TV").small_gb == 10


def test_table2_data_sources():
    assert puma("WC").data_source == "Wikipedia"
    assert puma("KM").data_source == "Netflix"
    assert puma("TS").data_source == "TeraGen"


def test_map_heavy_classification():
    """The paper's taxonomy: WC/GR/HR/HM map-heavy, II/TS reduce-dominated."""
    for ab in ("WC", "GR", "HR", "HM"):
        assert puma(ab).map_heavy, ab
    for ab in ("II", "TS", "TV", "KM"):
        assert not puma(ab).map_heavy, ab


def test_job_rendering_small_large():
    wc = puma("WC")
    assert wc.job().input_mb == 20 * 1024
    assert wc.large_gb == 256
    assert wc.job(input_mb=123.0).input_mb == 123.0


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        puma("XX")
    assert puma("wc").abbrev == "WC"  # case-insensitive


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("x", "X", 0, 1, "d", 1.0, 0.1, 1.0, 1)


# ---------------------------------------------------------------------------
# Skew models
# ---------------------------------------------------------------------------
def test_noskew_uniform():
    f = NoSkew().factors(10, np.random.default_rng(0))
    assert np.all(f == 1.0)


def test_lognormal_unit_mean():
    f = LognormalSkew(0.5).factors(20000, np.random.default_rng(0))
    assert np.mean(f) == pytest.approx(1.0, abs=0.02)
    assert np.all(f > 0)


def test_lognormal_zero_sigma_is_uniform():
    f = LognormalSkew(0.0).factors(5, np.random.default_rng(0))
    assert np.all(f == 1.0)


def test_lognormal_dispersion_increases_with_sigma():
    rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
    lo = LognormalSkew(0.1).factors(5000, rng1)
    hi = LognormalSkew(0.6).factors(5000, rng2)
    assert np.std(hi) > np.std(lo)


def test_skew_validation():
    with pytest.raises(ValueError):
        LognormalSkew(-0.1)


def test_workload_cost_factors_shape():
    f = puma("KM").cost_factors(100, np.random.default_rng(0))
    assert f.shape == (100,)
    assert puma("TS").cost_factors(10, np.random.default_rng(0)).tolist() == [1.0] * 10


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def make_trace(runtimes, phase=None, overhead=2.0):
    t = JobTrace()
    t.map_phase_start = 0.0
    end = 0.0
    for i, rt in enumerate(runtimes):
        r = TaskRecord(f"m{i}", "map", "n0", 64.0, start=0.0, overhead=overhead)
        r.end = rt
        r.effective = rt - overhead
        r.processed_mb = 64.0
        t.add(r)
        end = max(end, rt)
    t.map_phase_end = phase if phase is not None else end
    t.submit_time = 0.0
    t.finish_time = t.map_phase_end
    return t


def test_efficiency_eq2_perfect_balance():
    # Two tasks of 10s on 2 containers, phase = 10s -> efficiency 1.0
    t = make_trace([10.0, 10.0], phase=10.0)
    assert job_efficiency(t, available_containers=2) == pytest.approx(1.0)


def test_efficiency_eq2_imbalance():
    # One 10s and one 30s task on 2 containers: serial 40, phase 30 -> 0.66
    t = make_trace([10.0, 30.0], phase=30.0)
    assert job_efficiency(t, 2) == pytest.approx(40.0 / 60.0)


def test_serial_runtime_includes_killed_copies():
    t = make_trace([10.0, 10.0])
    t.records[0].killed = True
    assert serial_runtime(t) == 20.0


def test_efficiency_validation():
    t = make_trace([10.0])
    with pytest.raises(ValueError):
        job_efficiency(t, 0)
    t.map_phase_end = t.map_phase_start
    with pytest.raises(ValueError):
        job_efficiency(t, 2)


def test_runtime_stats():
    rts = [10.0, 10.0, 20.0]
    assert straggler_ratio(rts) == 2.0
    assert tail_slowdown_fraction([1.0] * 9 + [5.0], factor=3.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        straggler_ratio([])


@pytest.mark.parametrize("size", [1, 2, 7, 10, 101])
def test_summary_matches_numpy(size):
    values = np.random.default_rng(size).lognormal(3.0, 0.6, size=size).tolist()
    s = Summary.of(values)
    assert s.n == size
    assert s.mean == np.mean(values) and s.std == np.std(values)
    assert s.min == min(values) and s.max == max(values)
    assert s.median == np.percentile(values, 50)
    assert s.p95 == np.percentile(values, 95)
    assert s.p99 == np.percentile(values, 99)


def test_summary_ci95_halfwidth_and_empty_sample():
    assert Summary.of([4.0]).ci95_halfwidth() == float("inf")
    s = Summary.of([1.0, 3.0])
    assert s.ci95_halfwidth() == pytest.approx(1.96 * 1.0 / np.sqrt(2))
    with pytest.raises(ValueError):
        Summary.of([])


def test_normalized_pdf_integrates_to_one(monkeypatch):
    monkeypatch.setattr(stats, "PDF_BINS", 25)
    rng = np.random.default_rng(0)
    rts = rng.uniform(10, 100, size=500).tolist()
    centers, density = normalized_runtime_pdf(rts)
    width = 1.0 / 25
    assert np.sum(density) * width == pytest.approx(1.0)
    assert len(centers) == 25
    assert centers[0] == pytest.approx(width / 2)
