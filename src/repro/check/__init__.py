"""Simulation correctness harness: runtime invariants, fuzzing, differentials.

The harness has three layers, all off by default and zero-cost when
disabled (the :mod:`repro.obs` contract):

* :class:`InvariantChecker` (:mod:`repro.check.invariants`) — arms
  conservation laws on a live run through the engine/RM hook points:
  every BU assigned and completed exactly once (modulo failure re-enqueue
  and speculation kills), per-node slots within ``[0, capacity]``,
  monotonic clock, heartbeat ordering, and terminal "all input processed,
  no orphan attempts" postconditions;
* the config fuzzer (:mod:`repro.check.fuzz`, ``repro fuzz`` on the CLI)
  — samples topologies, workloads, failure schedules, interference and
  arrival streams, runs every engine with invariants armed, and shrinks
  any failing config to a minimal JSON reproducer;
* the differential layer (:mod:`repro.check.differential`) — metamorphic
  properties across engines and configs (speed scaling, failure-free
  golden equivalence, cross-engine byte conservation).

:mod:`repro.check.mutations` holds four deliberately seeded bugs used by
the mutation-style self-test to prove the checker actually catches the
failure classes it claims to.
"""

from repro.check.differential import DiffReport, run_differentials
from repro.check.fuzz import (
    Failure,
    FuzzResult,
    fuzz_run,
    probe,
    same_failure_predicate,
    sample_scenario,
    shrink,
)
from repro.check.harness import ScenarioConfig, run_scenario
from repro.check.invariants import CheckReport, InvariantChecker, InvariantViolation
from repro.check.mutations import MUTATIONS, apply_mutation

__all__ = [
    "CheckReport",
    "DiffReport",
    "Failure",
    "FuzzResult",
    "InvariantChecker",
    "InvariantViolation",
    "MUTATIONS",
    "ScenarioConfig",
    "apply_mutation",
    "fuzz_run",
    "probe",
    "run_differentials",
    "same_failure_predicate",
    "run_scenario",
    "sample_scenario",
    "shrink",
]
