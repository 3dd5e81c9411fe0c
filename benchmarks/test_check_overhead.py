"""Correctness-harness overhead bound: checks disabled must cost < 2%.

The checker installs itself by wrapping *instance* methods through the
engine/RM hook points, so a run that never arms a checker executes the
exact pre-harness code — the disabled path adds one ``check is not None``
branch at setup and nothing per event.  This bench pins that claim
end-to-end on a full single-job run, and reports the armed-checker cost
for context (armed is allowed to be slower; it is a debugging mode).
"""

from __future__ import annotations

import time

from conftest import save_result

from repro.check import InvariantChecker
from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.experiments.report import render_table
from repro.workloads.puma import puma

ROUNDS = 5
INNER = 3  # runs per timing sample; amortizes per-run noise
INPUT_MB = 4096.0


def _time_plain() -> float:
    """Baseline: the pre-harness call shape (no ``check`` argument)."""
    t0 = time.perf_counter()
    for _ in range(INNER):
        run_job(
            heterogeneous6_cluster, puma("WC"), "flexmap",
            seed=3, input_mb=INPUT_MB,
        )
    return time.perf_counter() - t0


def _time_disabled() -> float:
    """The shipping disabled path: ``check=None`` through the runner."""
    t0 = time.perf_counter()
    for _ in range(INNER):
        run_job(
            heterogeneous6_cluster, puma("WC"), "flexmap",
            seed=3, input_mb=INPUT_MB, check=None,
        )
    return time.perf_counter() - t0


def _time_armed() -> float:
    """Full invariant checking armed (context only; no bound asserted)."""
    t0 = time.perf_counter()
    for _ in range(INNER):
        checker = InvariantChecker()
        run_job(
            heterogeneous6_cluster, puma("WC"), "flexmap",
            seed=3, input_mb=INPUT_MB, check=checker,
        )
        assert checker.finalize().ok
    return time.perf_counter() - t0


def test_disabled_checks_overhead_bound():
    plain_s = disabled_s = armed_s = float("inf")
    # Interleave rounds so CPU-frequency drift hits all scenarios equally.
    for _ in range(ROUNDS):
        plain_s = min(plain_s, _time_plain())
        disabled_s = min(disabled_s, _time_disabled())
        armed_s = min(armed_s, _time_armed())

    slowdown = disabled_s / plain_s - 1.0
    rows = [
        ["plain run s", plain_s],
        ["checks disabled s", disabled_s],
        ["checks armed s", armed_s],
        ["disabled slowdown", slowdown],
        ["armed slowdown", armed_s / plain_s - 1.0],
    ]
    save_result(
        "check_overhead",
        render_table("Correctness-harness overhead (full single job)",
                     ["metric", "value"], rows, col_width=22),
    )
    # The bound the harness promises: disabled checks cost < 2%.
    assert slowdown < 0.02, f"disabled-checks slowdown {slowdown:.1%} >= 2%"
