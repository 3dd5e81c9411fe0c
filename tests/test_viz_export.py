"""Tests for ASCII visualization."""

from repro.sim.trace import JobTrace
from repro.viz.ascii import gantt, sparkline
from tests.conftest import quick_run


# ---------------------------------------------------------------------------
# sparkline
# ---------------------------------------------------------------------------
def test_sparkline_scales_to_peak():
    s = sparkline([0.0, 5.0, 10.0])
    assert len(s) == 3
    assert s[0] == " " and s[-1] == "@"


def test_sparkline_compresses_long_series():
    s = sparkline(list(range(1000)), width=50)
    assert len(s) == 50
    # Monotone input -> non-decreasing intensity.
    levels = " .:-=+*#%@"
    assert [levels.index(c) for c in s] == sorted(levels.index(c) for c in s)


def test_sparkline_empty_and_zero():
    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0]).strip() == ""


# ---------------------------------------------------------------------------
# gantt
# ---------------------------------------------------------------------------
def test_gantt_renders_real_trace():
    r = quick_run("flexmap", input_mb=512.0)
    chart = gantt(r.trace)
    assert "t00" in chart and "t02" in chart
    assert "m" in chart.lower()
    assert "r" in chart  # reducers present


def test_gantt_empty_trace():
    assert gantt(JobTrace()) == "(no tasks)"
