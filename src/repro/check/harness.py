"""Scenario harness: declarative configs -> fully checked simulation runs.

A :class:`ScenarioConfig` is a small, JSON-serializable description of one
simulation — topology, workload, failure schedule, interference, and (for
multi-job runs) the arrival stream and cluster policy.  ``run_scenario``
builds the run from scratch — a single job through
:func:`repro.engines.driver.run_job`, a job stream through
:class:`repro.multijob.service.ClusterService` — arms an
:class:`InvariantChecker` on it, and returns the check report; the fuzzer
(:mod:`repro.check.fuzz`) samples configs, and a failing config shrinks to
a minimal JSON reproducer that ``from_json`` replays bit-identically.
:func:`run_config` is the one place a config's single job becomes a
``run_job`` call; the differential checks use it too.

``mutation`` names a deliberately seeded bug from
:mod:`repro.check.mutations`; it exists only so the mutation self-tests can
prove the checker catches each failure class.  ``run_scenario`` hands it to
:func:`~repro.check.mutations.apply_mutation` with the checker, before
either run path builds anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from repro.check.invariants import CheckReport, InvariantChecker
from repro.check.mutations import apply_mutation
from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.cluster.interference import MultiTenantInterference
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.engines.driver import RunResult, run_job
from repro.engines.registry import ENGINES
from repro.mapreduce.job import JobSpec
from repro.sim.random import RandomStreams

#: Cluster scheduling policies a multi-job scenario may use.
POLICIES: tuple[str, ...] = ("fifo", "fair", "capacity")


def _node_id(index: int) -> str:
    return f"f{index:02d}"


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario, serializable as a reproducer."""

    seed: int = 0
    engine: str = "flexmap"
    speeds: tuple[float, ...] = (1.0, 1.0, 2.0)
    slots: tuple[int, ...] = (2, 2, 2)
    input_mb: float = 256.0
    reducers: int = 2
    shuffle_ratio: float = 0.1
    #: Crash schedule as ``(time_s, node_index)`` pairs.
    failures: tuple[tuple[float, int], ...] = ()
    #: Fraction of nodes slowed by multi-tenant co-runners (0 = none).
    slow_fraction: float = 0.0
    #: 1 = single-job run; >1 = ClusterService with a Poisson stream.
    n_jobs: int = 1
    policy: str = "fair"
    arrival_rate: float = 0.02
    #: Seeded bug name from :mod:`repro.check.mutations`, or None.
    mutation: str | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"negative seed: {self.seed}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine: {self.engine}")
        if not self.speeds:
            raise ValueError("need at least one node")
        if len(self.speeds) != len(self.slots):
            raise ValueError(
                f"speeds/slots length mismatch: {len(self.speeds)} vs {len(self.slots)}"
            )
        if self.n_jobs < 1:
            raise ValueError(f"need at least one job: {self.n_jobs}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy: {self.policy}")
        for time_s, node_index in self.failures:
            if not 0 <= node_index < len(self.speeds):
                raise ValueError(f"failure on unknown node index {node_index}")
            if time_s < 0:
                raise ValueError(f"negative failure time: {time_s}")
        alive = len(self.speeds) - len({i for _, i in self.failures})
        if alive < 1:
            raise ValueError("failure schedule kills every node")

    # ------------------------------------------------------------------
    # serialization (the reproducer format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-types view (tuples become lists)."""
        return {
            "seed": self.seed,
            "engine": self.engine,
            "speeds": list(self.speeds),
            "slots": list(self.slots),
            "input_mb": self.input_mb,
            "reducers": self.reducers,
            "shuffle_ratio": self.shuffle_ratio,
            "failures": [[t, i] for t, i in self.failures],
            "slow_fraction": self.slow_fraction,
            "n_jobs": self.n_jobs,
            "policy": self.policy,
            "arrival_rate": self.arrival_rate,
            "mutation": self.mutation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown reproducer fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "speeds" in kwargs:
            kwargs["speeds"] = tuple(float(s) for s in kwargs["speeds"])
        if "slots" in kwargs:
            kwargs["slots"] = tuple(int(s) for s in kwargs["slots"])
        if "failures" in kwargs:
            kwargs["failures"] = tuple(
                (float(t), int(i)) for t, i in kwargs["failures"]
            )
        return cls(**kwargs)

    def to_json(self) -> str:
        """The reproducer file format: stable, indented JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """Parse a reproducer produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """One-line summary for fuzz logs."""
        parts = [
            f"{self.engine}",
            f"{len(self.speeds)} node(s)",
            f"{self.input_mb:g} MB",
            f"{self.reducers}r",
        ]
        if self.failures:
            parts.append(f"{len(self.failures)} failure(s)")
        if self.slow_fraction > 0:
            parts.append(f"slow={self.slow_fraction:g}")
        if self.n_jobs > 1:
            parts.append(f"{self.n_jobs} jobs/{self.policy}")
        if self.mutation:
            parts.append(f"mutation={self.mutation}")
        return " ".join(parts) + f" seed={self.seed}"


@dataclass
class ScenarioResult:
    """A completed, checked scenario run."""

    config: ScenarioConfig
    report: CheckReport
    jcts: tuple[float, ...] = ()
    events: int = 0


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def build_cluster(config: ScenarioConfig) -> Cluster:
    """Noise-free cluster matching the config's speeds/slots vectors."""
    nodes = [
        Node(_node_id(i), base_speed=speed, slots=slot_count, exec_sigma=0.0)
        for i, (speed, slot_count) in enumerate(zip(config.speeds, config.slots))
    ]
    interference = (
        MultiTenantInterference(config.slow_fraction)
        if config.slow_fraction > 0
        else None
    )
    return Cluster(
        nodes, network=NetworkModel(), interference=interference, name="scenario"
    )


def build_job(config: ScenarioConfig) -> JobSpec:
    """Single-job workload (skew-free; cost model matches the test jobs)."""
    return JobSpec(
        name="fz",
        input_mb=config.input_mb,
        map_cost_s_per_mb=0.625,
        shuffle_ratio=config.shuffle_ratio,
        reduce_cost_s_per_mb=0.25,
        num_reducers=config.reducers,
        input_file="fz-input",
    )


def build_failures(config: ScenarioConfig) -> FailureSchedule | None:
    """Crash schedule over the config's node indices, or None if empty."""
    if not config.failures:
        return None
    return FailureSchedule(
        [NodeFailure(t, _node_id(i)) for t, i in config.failures]
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_config(
    config: ScenarioConfig,
    failures: FailureSchedule | None = None,
    obs=None,
    check: InvariantChecker | None = None,
    max_events: int | None = None,
) -> RunResult:
    """The config's single job through :func:`repro.engines.driver.run_job`.

    ``failures`` is passed as given (``config.failures`` is not read), so
    callers choose the crash schedule.
    """
    return run_job(
        lambda: build_cluster(config),
        build_job(config),
        config.engine,
        seed=config.seed,
        failures=failures,
        obs=obs,
        check=check,
        max_events=max_events,
    )


def _run_single(
    config: ScenarioConfig, checker: InvariantChecker, max_events: int
) -> tuple[tuple[float, ...], int]:
    """One checked job with the config's crash schedule."""
    result = run_config(
        config, failures=build_failures(config), check=checker, max_events=max_events
    )
    return (result.jct,), result.am.sim.events_processed


def _run_service(
    config: ScenarioConfig, checker: InvariantChecker, max_events: int
) -> tuple[tuple[float, ...], int]:
    """Multi-job run: a Poisson stream over one shared checked cluster."""
    from repro.multijob.arrivals import PoissonArrivals
    from repro.multijob.service import ClusterService

    arrivals = PoissonArrivals(
        rate=config.arrival_rate,
        n_jobs=config.n_jobs,
        rng=RandomStreams(config.seed).stream("fuzz-arrivals"),
        benchmarks=("WC", "GR"),
        engines=(config.engine,),
        input_mb=config.input_mb,
    )
    service = ClusterService(
        cluster_factory=lambda: build_cluster(config),
        arrivals=arrivals,
        policy=config.policy,
        seed=config.seed,
        failures=build_failures(config),
        check=checker,
    )
    result = service.run(max_events=max_events, compute_slowdown=False)
    return tuple(o.jct for o in result.outcomes), result.events_processed


def run_scenario(
    config: ScenarioConfig,
    strict: bool = True,
    max_events: int = 5_000_000,
) -> ScenarioResult:
    """Build, run, and invariant-check one scenario.

    ``strict=True`` raises :class:`repro.check.InvariantViolation` at the
    first broken invariant (fail fast, the fuzzer's probe mode);
    ``strict=False`` collects every violation into the report.
    """
    checker = InvariantChecker(strict=strict)
    if config.mutation is not None:
        apply_mutation(config.mutation, checker)
    if config.n_jobs <= 1:
        jcts, events = _run_single(config, checker, max_events)
    else:
        jcts, events = _run_service(config, checker, max_events)
    report = checker.finalize()
    return ScenarioResult(config=config, report=report, jcts=jcts, events=events)
