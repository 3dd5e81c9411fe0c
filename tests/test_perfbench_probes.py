"""The benchmark's layer probes still hook into the simulator.

``perfbench/probes.py`` wraps simulator methods by class attribute for the
duration of a traced pass.  A refactor that renames or bypasses one of
those methods would silently zero the benchmark's per-layer counters, so
this test runs two small jobs under the tracer and checks that every
counter the probes feed moved, and that the tracer puts every class
attribute back afterwards.
"""

import sys
from pathlib import Path

import pytest

from tests.conftest import quick_run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def probes():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import probes
    finally:
        sys.path.remove(str(PERFBENCH))
    return probes


def _wrapped_attributes(probes):
    """Every (class, attribute) pair the tracer swaps on ``__enter__``."""
    pairs = {(cls, attr) for cls, attr, _, _ in probes.SPANS}
    pairs |= {
        (probes.SpeedMonitor, "get_speed"),
        (probes.SpeedMonitor, "report_round"),
        (probes.InvariantChecker, "finalize"),
        (probes.Simulator, "__init__"),
        (probes.TaskAttempt, "__init__"),
    }
    return pairs


def test_layer_tracer_counts_every_layer_and_restores(probes):
    pairs = _wrapped_attributes(probes)
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in pairs}

    with probes.LayerTracer(keep_spans=False) as tracer:
        for cls, attr in pairs:
            assert cls.__dict__[attr] is not originals[cls, attr], (
                f"{cls.__name__}.{attr} was not wrapped"
            )
        for engine in ("flexmap", "hadoop-64"):
            result = quick_run(engine)
            assert result.am.job_done
    metrics = tracer.layer_metrics(wall_s=0.0)

    for name in (
        "yarn.offers",
        "yarn.grants",
        "yarn.heartbeat_ticks",
        "core.get_speed_calls",
        "engines.spec_scans",
        "engines.records_scanned",
    ):
        assert metrics[name] > 0, f"{name} stayed at zero"
    assert metrics["sim.events"] > 0
    assert metrics["mapreduce.attempts"] == metrics["yarn.grants"]

    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, (
            f"{cls.__name__}.{attr} not restored after the traced block"
        )
