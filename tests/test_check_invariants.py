"""Invariant checker: clean runs pass, arming does not perturb behaviour.

The checker reads a run through plain hook points
(``Simulator.install_step_interceptor``, ``ResourceManager.audit``, each
AM's ``TraceRecorder.check`` ledger and heartbeat subscribers) and swaps
no method, so a checked run must execute the exact same schedule as an
unchecked one — these tests pin both directions: every healthy scenario
(all engines, failures, speculation, interference, multi-job service)
produces a clean report, and arming the checker leaves the JCT
bit-identical.
"""

import pytest

from repro.check import (
    CheckReport,
    InvariantChecker,
    InvariantViolation,
    ScenarioConfig,
    run_scenario,
)
from repro.check.harness import build_failures, run_config
from repro.cluster.node import Node
from repro.engines import ENGINES, run_job
from repro.experiments.clusters import heterogeneous6_cluster
from repro.sim.engine import Simulator
from repro.workloads.puma import puma
from repro.yarn.container import Container

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
    config = ScenarioConfig(mutation="double-assign-bu")
    with pytest.raises(InvariantViolation) as excinfo:
        run_scenario(config, strict=True)
    assert excinfo.value.rule == "bu-conservation"


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_checker_swaps_no_method_and_finalize_unhooks(engine):
    config = ScenarioConfig(
        engine=engine,
        speeds=(1.0, 1.0, 1.0, 2.0),
        slots=(2, 2, 2, 2),
        failures=((30.0, 1),),
    )
    checker = InvariantChecker()
    am = run_config(config, failures=build_failures(config), check=checker).am
    assert am.recorder.check is not None
    assert am.rm.audit is checker
    for obj in (am, am.maps, am.index, am.rm):
        shadowed = [
            name for name in vars(obj) if callable(getattr(type(obj), name, None))
        ]
        assert shadowed == [], f"{type(obj).__name__} methods replaced: {shadowed}"
    assert checker.finalize().ok
    assert am.recorder.check is None
    assert am.rm.audit is None


class _PutBackOnFirstLaunch(InvariantChecker):
    """Returns the first launched task's first BU to the locality index
    through ``index.put_back`` while the task still runs — a put_back
    outside any failure requeue."""

    def attach_am(self, am) -> None:
        super().attach_am(am)
        inner_launch = am.maps.launch
        self.returned = None

        def launch(container, assignment) -> None:
            inner_launch(container, assignment)
            if self.returned is None:
                self.returned = assignment.split.blocks[0]
                am.index.put_back(self.returned)

        am.maps.launch = launch


@pytest.mark.parametrize("engine", ["hadoop-64", "flexmap"])
def test_put_back_outside_requeue_is_caught_at_relaunch(engine):
    checker = _PutBackOnFirstLaunch()
    with pytest.raises(InvariantViolation) as excinfo:
        run_config(ScenarioConfig(engine=engine), check=checker)
    assert excinfo.value.rule == "bu-conservation"
    # Caught at the second launch, not later at the second completion.
    assert (
        f"BU {checker.returned.block_id} assigned twice" in excinfo.value.message
    )


class _BumpsASlot(InvariantChecker):
    """Moves one node's ``busy_slots`` by ``delta`` behind the RM's back
    after the 40th event."""

    def __init__(self, delta: int) -> None:
        super().__init__()
        self.delta = delta
        self.node = None

    def _after_event(self) -> None:
        super()._after_event()
        if self.events_checked == 40:
            self.node = self._cluster.nodes[0]
            self.node.busy_slots += self.delta


@pytest.mark.parametrize("delta", [1, -1])
def test_a_busy_slot_moved_behind_the_rms_back_is_caught(delta):
    config = ScenarioConfig(engine="hadoop-64")
    checker = _BumpsASlot(delta)
    with pytest.raises(InvariantViolation) as excinfo:
        run_config(config, failures=build_failures(config), check=checker)
        checker.finalize()
    assert excinfo.value.rule in ("slot-bounds", "slot-leak")
    assert f"node {checker.node.node_id} " in excinfo.value.message


def test_slot_bounds_are_checked_at_the_transition():
    checker = InvariantChecker()
    node = Node("n0", base_speed=1.0, slots=1)
    node.busy_slots = 1
    # The checker's ledger agrees with the RM, but the occupy would
    # overfill the node.
    checker._occupied_by_node["n0"] = 1
    with pytest.raises(InvariantViolation) as excinfo:
        checker.on_occupy(Container(node))
    assert excinfo.value.rule == "slot-bounds"
    assert excinfo.value.message == "node n0 would hold 2 busy slots outside [0, 1]"


def test_an_event_that_rewinds_the_clock_is_caught():
    sim = Simulator()
    InvariantChecker().arm(sim)

    def rewind() -> None:
        sim.now = 5.0

    sim.schedule(10.0, lambda: None)
    sim.schedule(20.0, rewind)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    assert excinfo.value.rule == "clock-monotonic"
    assert "10.000000 -> 5.000000" in excinfo.value.message
