"""Correctness-harness overhead bound: checks disabled must cost < 2%.

The checker replaces no method: it reads a run through hook attributes
(``ResourceManager.audit``, each AM's ``TraceRecorder.check``) that stay
None when no checker is armed, so the disabled path costs one
``is not None`` test per hook call plus one branch at setup.  This bench
times that path end-to-end on a full single-job run, and reports the
armed-checker cost for context (armed is allowed to be slower; it is a
debugging mode).  ``check=None`` is ``run_job``'s default, so the plain
and disabled calls execute the same code: the bound holds only if the
timing separates a real 2% from host noise.

Each sample is one job of about 0.12 CPU s, timed in reference-normalised
CPU seconds by perfbench's :class:`meter.Meter`, which takes out both the
time the host runs someone else and the host's speed changes, with the
cyclic garbage collector paused.  The three scenarios are interleaved,
alternating plain and disabled first, over :data:`ROUNDS` rounds; the
bound applies to the median of the per-round disabled/plain ratios.  Run
it alone on an idle machine.
"""

from __future__ import annotations

import gc
import statistics
import sys
from pathlib import Path

from conftest import save_result

from repro.check import InvariantChecker
from repro.engines import run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.experiments.report import render_table
from repro.workloads.puma import puma

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from meter import Meter  # noqa: E402

ROUNDS = 31
INPUT_MB = 131072.0


def _run_plain() -> None:
    """Baseline: the pre-harness call shape (no ``check`` argument)."""
    run_job(heterogeneous6_cluster, puma("WC"), "flexmap", seed=3, input_mb=INPUT_MB)


def _run_disabled() -> None:
    """The shipping disabled path: ``check=None`` through the runner."""
    run_job(
        heterogeneous6_cluster, puma("WC"), "flexmap",
        seed=3, input_mb=INPUT_MB, check=None,
    )


def _run_armed() -> None:
    """Full invariant checking armed (context only; no bound asserted)."""
    checker = InvariantChecker()
    run_job(
        heterogeneous6_cluster, puma("WC"), "flexmap",
        seed=3, input_mb=INPUT_MB, check=checker,
    )
    assert checker.finalize().ok


def _timed(meter: Meter, run, times: list[float]) -> None:
    # Collect first and pause the cyclic collector while timing, as timeit
    # does: a job leaves enough cyclic garbage that where the collections
    # fall moves single runs by +-20%, more than the bound.
    gc.collect()
    gc.disable()
    try:
        meter.start()
        run()
        meter.stop(times)
    finally:
        gc.enable()


def test_disabled_checks_overhead_bound():
    _run_plain()  # warm-up: lazy imports and first-call caches
    meter = Meter()
    plain: list[float] = []
    disabled: list[float] = []
    armed: list[float] = []
    for i in range(ROUNDS):
        first, second = (_run_plain, plain), (_run_disabled, disabled)
        if i % 2:
            first, second = second, first
        _timed(meter, *first)
        _timed(meter, *second)
        _timed(meter, _run_armed, armed)
    meter.flush()

    slowdown = statistics.median(d / p for d, p in zip(disabled, plain)) - 1.0
    plain_s = statistics.median(plain)
    armed_s = statistics.median(armed)
    rows = [
        ["rounds", ROUNDS],
        ["plain run s", plain_s],
        ["checks disabled s", statistics.median(disabled)],
        ["checks armed s", armed_s],
        ["disabled slowdown", slowdown],
        ["armed slowdown", armed_s / plain_s - 1.0],
    ]
    save_result(
        "check_overhead",
        render_table("Correctness-harness overhead (full single job, "
                     "normalised CPU s, medians)",
                     ["metric", "value"], rows, col_width=22),
    )
    # The bound the harness promises: disabled checks cost < 2%.
    assert slowdown < 0.02, f"disabled-checks slowdown {slowdown:.1%} >= 2%"
