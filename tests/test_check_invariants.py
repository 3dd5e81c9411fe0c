"""Invariant checker: clean runs pass, arming does not perturb behaviour.

The checker installs itself through the engine/RM hook points
(``Simulator.install_step_interceptor``, ``ResourceManager.install_audit``)
and per-AM instance-method wraps, so a checked run must execute the exact
same schedule as an unchecked one — these tests pin both directions: every
healthy scenario (all engines, failures, speculation, interference,
multi-job service) produces a clean report, and arming the checker leaves
the JCT bit-identical.
"""

import pytest

from repro.check import (
    CheckReport,
    InvariantChecker,
    ScenarioConfig,
    run_scenario,
)
from repro.engines import ENGINES, run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.workloads.puma import puma

ALL_ENGINES = sorted(ENGINES)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_clean_single_job_all_engines(engine):
    result = run_scenario(ScenarioConfig(engine=engine))
    assert result.report.ok, result.report.summary()
    assert result.report.events_checked > 0
    assert result.report.ams_attached == 1
    assert result.jcts and result.jcts[0] > 0


@pytest.mark.parametrize("engine", ["flexmap", "hadoop-64", "skewtune-64"])
def test_clean_run_with_node_failure(engine):
    config = ScenarioConfig(
        engine=engine,
        speeds=(1.0, 1.0, 1.0, 2.0),
        slots=(2, 2, 2, 2),
        failures=((30.0, 1),),
    )
    result = run_scenario(config)
    assert result.report.ok, result.report.summary()


def test_clean_run_with_two_failures_and_interference():
    config = ScenarioConfig(
        engine="flexmap",
        speeds=(1.0, 1.0, 1.0, 2.0),
        slots=(2, 2, 2, 2),
        failures=((25.0, 0), (60.0, 2)),
        slow_fraction=0.25,
    )
    result = run_scenario(config)
    assert result.report.ok, result.report.summary()


def test_clean_run_with_speculation_in_flight():
    # The speculation-rescue config: a crawling node forces backup copies,
    # so the checker must tolerate shared blocks and loser kills.
    config = ScenarioConfig(
        seed=5,
        engine="hadoop-64",
        speeds=(2.0, 2.0, 0.25),
        slots=(2, 2, 2),
        input_mb=768.0,
        reducers=0,
        shuffle_ratio=0.0,
    )
    result = run_scenario(config)
    assert result.report.ok, result.report.summary()


def test_checker_does_not_perturb_the_run(tmp_path):
    plain = run_job(heterogeneous6_cluster, puma("WC"), "flexmap", seed=3, input_mb=512.0)
    checker = InvariantChecker()
    checked = run_job(
        heterogeneous6_cluster, puma("WC"), "flexmap",
        seed=3, input_mb=512.0, check=checker,
    )
    report = checker.finalize()
    assert report.ok, report.summary()
    assert checked.jct == plain.jct


def test_report_shape_and_summary():
    result = run_scenario(ScenarioConfig())
    report = result.report
    assert isinstance(report, CheckReport)
    assert report.violations == []
    assert isinstance(report.summary(), str)
    assert "ok" in report.summary()
    # Every rule in the catalogue ran at least zero times (is present).
    assert report.checks


def test_finalize_is_idempotent():
    checker = InvariantChecker()
    run_job(heterogeneous6_cluster, puma("WC"), "hadoop-64",
            seed=3, input_mb=256.0, check=checker)
    first = checker.finalize()
    second = checker.finalize()
    assert first.ok and second.ok
    assert first.events_checked == second.events_checked


def test_non_strict_collects_instead_of_raising():
    config = ScenarioConfig(mutation="double-assign-bu")
    result = run_scenario(config, strict=False)
    assert not result.report.ok
    assert any(v.rule == "bu-conservation" for v in result.report.violations)


def test_strict_mode_raises_at_first_violation():
    from repro.check import InvariantViolation

    config = ScenarioConfig(mutation="double-assign-bu")
    with pytest.raises(InvariantViolation) as excinfo:
        run_scenario(config, strict=True)
    assert excinfo.value.rule == "bu-conservation"
