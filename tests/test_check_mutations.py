"""Mutation self-test: the checker catches each seeded bug class.

Each mutation in :mod:`repro.check.mutations` breaks one invariant the
checker claims to enforce — BU conservation, container/slot accounting,
heartbeat ordering, the RM's round closure.  If any of these
tests fails, the checker has a blind spot: it would wave through a
scheduler bug of that class.
"""

import pytest

from repro.check import (
    MUTATIONS,
    InvariantViolation,
    ScenarioConfig,
    probe,
    run_scenario,
)

#: Mutation -> (scenario that triggers it, the rule that must fire).
CASES = {
    "double-assign-bu": (ScenarioConfig(mutation="double-assign-bu"), "bu-conservation"),
    "leak-slot-on-failure": (
        ScenarioConfig(failures=((30.0, 1),), mutation="leak-slot-on-failure"),
        "slot-leak",
    ),
    "skip-heartbeat": (ScenarioConfig(mutation="skip-heartbeat"), "heartbeat-order"),
    # Four reducers: a reduce-bias rejection on a slow node closes the
    # mutated FlexMap AM while a faster node would take the reducer.
    "close-on-every-decline": (
        ScenarioConfig(reducers=4, mutation="close-on-every-decline"),
        "incremental-state",
    ),
}


#: The same bugs in a two-job service run, which registers each AM before
#: submit() builds its index; the mutation arms on the first AM.  Value:
#: (scenario, a fragment of the expected diagnostic).
MULTIJOB_CASES = {
    "double-assign-bu": (
        ScenarioConfig(n_jobs=2, mutation="double-assign-bu"),
        "assigned twice",
    ),
    "leak-slot-on-failure": (
        ScenarioConfig(
            n_jobs=2, failures=((60.0, 1),), mutation="leak-slot-on-failure"
        ),
        "never released",
    ),
    "skip-heartbeat": (
        ScenarioConfig(n_jobs=2, mutation="skip-heartbeat"),
        "round jumped 2 -> 4",
    ),
    "close-on-every-decline": (
        ScenarioConfig(n_jobs=2, mutation="close-on-every-decline"),
        "closed for the round at t=",
    ),
}


def test_every_mutation_has_a_case():
    assert set(CASES) == set(MUTATIONS) == set(MULTIJOB_CASES)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_is_detected_with_precise_rule(mutation):
    config, expected_rule = CASES[mutation]
    failure = probe(config)
    assert failure is not None, f"checker missed mutation {mutation}"
    assert failure.kind == "invariant"
    assert failure.rule == expected_rule


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_is_detected_in_multijob_runs(mutation):
    config, fragment = MULTIJOB_CASES[mutation]
    failure = probe(config)
    assert failure is not None, f"checker missed mutation {mutation} in a service run"
    assert failure.kind == "invariant"
    assert failure.rule == CASES[mutation][1]
    assert fragment in failure.message


def test_double_assign_diagnostic_names_the_bu():
    with pytest.raises(InvariantViolation, match="assigned twice"):
        run_scenario(CASES["double-assign-bu"][0])


def test_leak_slot_diagnostic_names_the_node():
    config, _ = CASES["leak-slot-on-failure"]
    failure = probe(config)
    assert failure is not None
    assert "never released" in failure.message
    # The leaked container sat on the failed node.
    assert "f01" in failure.message


def test_skip_heartbeat_diagnostic_names_the_gap():
    failure = probe(CASES["skip-heartbeat"][0])
    assert failure is not None
    assert "round jumped 2 -> 4" in failure.message


def test_close_on_every_decline_diagnostic_names_the_node():
    failure = probe(CASES["close-on-every-decline"][0])
    assert failure is not None
    assert failure.message == "fz: closed for the round at t=82.899 but accepted on f02"


def test_unchecked_mutated_run_completes_quietly():
    """The bugs are real but silent: without the checker, each mutated run
    still 'finishes' — exactly the failure mode the harness exists for."""
    from repro.check import apply_mutation
    from repro.check.harness import _run_single
    from repro.check.invariants import InvariantChecker

    class _Disarmed(InvariantChecker):
        """Checker that never installs any hook."""

        def arm(self, sim, cluster=None, rm=None):
            return None

    for mutation, (config, _) in CASES.items():
        checker = _Disarmed()
        apply_mutation(mutation, checker)
        jcts, _events = _run_single(config, checker, max_events=5_000_000)
        assert jcts[0] > 0, f"mutation {mutation} should complete unchecked"


def test_unknown_mutation_rejected():
    from repro.check import apply_mutation

    with pytest.raises(ValueError, match="unknown mutation"):
        apply_mutation("no-such-bug", checker=None)


def test_diagnostics_do_not_depend_on_earlier_runs():
    """Containers are numbered per checker in first-occupy order, so a
    reproducer replays with the same message in any process."""
    config = ScenarioConfig(
        seed=1, failures=((20.0, 0),), mutation="leak-slot-on-failure"
    )
    first, second = (
        [str(v) for v in run_scenario(config, strict=False).report.violations]
        for _ in range(2)
    )
    assert first == second
    assert "never released (first: #" in first[0]
