"""Tests for the per-figure experiment drivers and the report renderer."""

import numpy as np
import pytest

from repro.experiments import figures as F
from repro.experiments.report import render_series, render_table


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def test_render_table_aligns_and_formats():
    out = render_table("T", ["a", "b"], [["x", 1.23456], ["y", 2]], col_width=10)
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "1.235" in out and "2" in out
    assert all(len(line) <= 20 for line in lines[2:])


def test_render_series_shapes():
    out = render_series("S", {"one": [1.0, 2.0], "two": [3.0, 4.0]}, [10, 20])
    lines = out.splitlines()
    assert len(lines) == 2 + 1 + 2  # title, rule, header, two rows
    assert "one" in lines[2] and "two" in lines[2]


# ---------------------------------------------------------------------------
# figure drivers at miniature scale (fast)
# ---------------------------------------------------------------------------
def test_fig1_driver_returns_both_clusters():
    data = F.fig1_task_runtimes(input_mb=1024.0, seed=1)
    assert set(data) == {"physical", "virtual"}
    for runtimes in data.values():
        assert runtimes == sorted(runtimes)
        assert all(r > 0 for r in runtimes)


def test_fig2_driver_shares_sum_to_one():
    data = F.fig2_static_binding(seed=3)
    for series in data.series.values():
        assert sum(series) == pytest.approx(1.0)


def test_fig3a_driver_is_density():
    data = F.fig3a_runtime_pdf(input_mb=2048.0, seed=1)
    assert set(data.series) == {"8MB", "64MB"}
    for dens in data.series.values():
        assert np.sum(dens) / len(dens) == pytest.approx(1.0)


def test_fig3bcd_driver_series_lengths():
    data = F.fig3bcd_task_size_sweep(input_mb=1024.0, seeds=[1])
    for series in data.series.values():
        assert len(series) == len(F.TASK_SIZES_MB)


def test_fig5_fig6_driver_normalization():
    jct, eff = F.fig5_fig6_benchmarks(
        cluster="physical", benchmarks=("WC", "HR"), seeds=[1], scale=0.05
    )
    assert jct.series["hadoop-64"] == [1.0, 1.0]  # normalized to itself
    for series in eff.series.values():
        assert all(0.0 < v <= 1.0 for v in series)


def test_fig7_driver_has_fast_and_slow():
    data = F.fig7_dynamic_sizing(cluster="physical", input_mb=1536.0, seed=2)
    assert data.series["fast-size-bus"][0] == 1
    assert data.series["slow-size-bus"][0] == 1
    assert len(data.series["fast-productivity"]) == len(data.series["fast-size-bus"])


def test_fig8_driver_keys(monkeypatch):
    monkeypatch.setattr(F, "FIG8_SLOW_FRACTIONS", (0.2,))
    data = F.fig8_multitenant(benchmarks=("HR",), seeds=[1], scale=0.02)
    assert set(data) == {0.2}
    fig = data[0.2]
    assert fig.series["hadoop-64"] == [1.0]
    assert set(fig.series) == set(F.FIG8_ENGINES)


def test_overhead_driver_fields():
    data = F.overhead_homogeneous(input_mb=1024.0, seeds=[1])
    assert {"flexmap_jct", "hadoop64_jct", "oracle256_jct",
            "penalty_vs_hadoop64", "penalty_vs_oracle"} == set(data)


def test_ablation_driver_variants():
    data = F.ablation_study(input_mb=1024.0, seeds=[1])
    assert set(data) == set(F.ABLATIONS)
    assert all(v > 0 for v in data.values())
