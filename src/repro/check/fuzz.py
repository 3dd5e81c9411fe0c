"""Seeded config fuzzer with greedy shrinking.

``fuzz_run`` samples :class:`~repro.check.ScenarioConfig` instances from a
seeded generator — topologies, workloads, failure schedules, interference
levels, multi-job arrival streams — and runs each with the invariant
checker armed (``repro fuzz`` on the CLI).  The sampler is deterministic:
the same ``--seed`` replays the same configs in the same order.

When a config fails, ``shrink`` reduces it delta-debugging style: each
candidate simplification (fewer jobs, fewer failures, fewer nodes, less
input, ...) is kept only if the *same* failure — matched on ``(kind,
rule)`` so an unrelated error cannot hijack the reproducer — still fires.
The fixpoint is written out as a minimal JSON reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.check.harness import POLICIES, ScenarioConfig, run_scenario
from repro.check.invariants import InvariantViolation

#: Engines the sampler draws from (the full single-job registry).
FUZZ_ENGINES: tuple[str, ...] = (
    "hadoop-64",
    "hadoop-128",
    "hadoop-nospec-64",
    "skewtune-64",
    "flexmap",
)

#: Candidate configs :func:`shrink` may probe before it gives up.
MAX_SHRINK_PROBES = 200

_SPEED_CHOICES: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
_INPUT_CHOICES: tuple[float, ...] = (128.0, 256.0, 512.0)


@dataclass(frozen=True)
class Failure:
    """How a scenario failed: an invariant violation or an engine crash."""

    kind: str  # "invariant" | "crash"
    rule: str  # violation rule, or the exception type name for crashes
    message: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.rule)


@dataclass
class FuzzResult:
    """Outcome of one ``fuzz_run`` campaign."""

    iterations: int
    seed: int
    passed: int
    failure: Failure | None = None
    failing_config: ScenarioConfig | None = None
    shrunk_config: ScenarioConfig | None = None
    shrink_steps: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def sample_scenario(rng: np.random.Generator, index: int) -> ScenarioConfig:
    """Draw one scenario; ``index`` only labels it via the seed."""
    n_nodes = int(rng.integers(2, 6))
    speeds = tuple(float(rng.choice(_SPEED_CHOICES)) for _ in range(n_nodes))
    slots = tuple(int(rng.integers(1, 5)) for _ in range(n_nodes))
    engine = str(rng.choice(FUZZ_ENGINES))
    input_mb = float(rng.choice(_INPUT_CHOICES))
    reducers = int(rng.integers(0, 5))
    shuffle_ratio = float(rng.uniform(0.1, 0.5))

    # Failure schedule: at most n_nodes - 1 distinct nodes may die so the
    # run can always finish on the survivors.
    n_failures = int(rng.integers(0, 3))
    candidates = list(rng.permutation(n_nodes)[: max(0, n_nodes - 1)])
    failures = tuple(
        (float(rng.uniform(5.0, 120.0)), int(candidates[i % len(candidates)]))
        for i in range(min(n_failures, len(candidates)))
    )

    slow_fraction = 0.0
    if rng.random() < 0.3:
        slow_fraction = float(rng.choice((0.25, 0.5)))

    n_jobs = 1
    policy = "fair"
    if rng.random() < 0.3:
        n_jobs = int(rng.integers(2, 4))
        policy = str(rng.choice(POLICIES))

    return ScenarioConfig(
        seed=index,
        engine=engine,
        speeds=speeds,
        slots=slots,
        input_mb=input_mb,
        reducers=reducers,
        shuffle_ratio=shuffle_ratio,
        failures=failures,
        slow_fraction=slow_fraction,
        n_jobs=n_jobs,
        policy=policy,
        arrival_rate=float(rng.uniform(0.005, 0.05)),
    )


# ----------------------------------------------------------------------
# probing
# ----------------------------------------------------------------------
def probe(config: ScenarioConfig, max_events: int = 5_000_000) -> Failure | None:
    """Run one checked scenario; classify how it failed, or None if clean."""
    try:
        run_scenario(config, strict=True, max_events=max_events)
    except InvariantViolation as violation:
        return Failure("invariant", violation.rule, violation.message)
    except Exception as exc:  # engine crash/stall — also a finding
        return Failure("crash", type(exc).__name__, str(exc))
    return None


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _shrink_candidates(config: ScenarioConfig):
    """Change-sets to try, most aggressive first (as ``replace`` kwargs)."""
    if config.n_jobs > 1:
        yield {"n_jobs": 1}
        yield {"n_jobs": config.n_jobs - 1}
    for i in range(len(config.failures)):
        yield {"failures": config.failures[:i] + config.failures[i + 1:]}
    if len(config.speeds) > 1:
        # Drop the last node, either discarding failures that targeted it
        # or remapping them to node 0 (keeps failure-dependent bugs alive
        # while the topology keeps shrinking).
        last = len(config.speeds) - 1
        yield {
            "speeds": config.speeds[:-1],
            "slots": config.slots[:-1],
            "failures": tuple((t, i) for t, i in config.failures if i != last),
        }
        if any(i == last for _, i in config.failures):
            yield {
                "speeds": config.speeds[:-1],
                "slots": config.slots[:-1],
                "failures": tuple(
                    (t, 0 if i == last else i) for t, i in config.failures
                ),
            }
    # Retarget failures at node 0 so node-count shrinking can proceed.
    if any(i != 0 for _, i in config.failures):
        yield {"failures": tuple((t, 0) for t, i in config.failures)}
    if config.slow_fraction > 0:
        yield {"slow_fraction": 0.0}
    if config.reducers > 0:
        yield {"reducers": 0, "shuffle_ratio": 0.0}
    if config.input_mb > 64.0:
        yield {"input_mb": max(64.0, config.input_mb / 2)}
    for i, (t, node) in enumerate(config.failures):
        if t > 10.0:
            yield {
                "failures": config.failures[:i]
                + ((t / 2, node),)
                + config.failures[i + 1:]
            }
    if any(s > 1 for s in config.slots):
        yield {"slots": tuple(1 for _ in config.slots)}
    if any(s != 1.0 for s in config.speeds):
        yield {"speeds": tuple(1.0 for _ in config.speeds)}


def shrink(
    config: ScenarioConfig, predicate: Callable[[ScenarioConfig], bool]
) -> tuple[ScenarioConfig, int]:
    """Greedy fixpoint shrink: keep any simplification that still fails.

    ``predicate`` returns True iff a candidate reproduces the original
    failure.  Returns ``(minimal config, probes spent)``.
    """
    probes = 0
    current = config
    improved = True
    while improved and probes < MAX_SHRINK_PROBES:
        improved = False
        for changes in _shrink_candidates(current):
            if probes >= MAX_SHRINK_PROBES:
                break
            try:
                candidate = replace(current, **changes)
            except ValueError:  # candidate breaks a config invariant; skip
                continue
            probes += 1
            if predicate(candidate):
                current = candidate
                improved = True
                break
    return current, probes


def same_failure_predicate(
    original: Failure, max_events: int = 5_000_000
) -> Callable[[ScenarioConfig], bool]:
    """True iff a config fails with the original's ``(kind, rule)``."""

    def predicate(candidate: ScenarioConfig) -> bool:
        found = probe(candidate, max_events=max_events)
        return found is not None and found.key == original.key

    return predicate


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
def fuzz_run(
    iterations: int,
    seed: int = 0,
    max_events: int = 5_000_000,
    shrink_failures: bool = True,
    log: Callable[[str], None] | None = None,
) -> FuzzResult:
    """Run a fuzz campaign; stop and shrink at the first failure."""
    rng = np.random.default_rng(seed)
    passed = 0
    for i in range(iterations):
        config = sample_scenario(rng, index=seed * 1_000_003 + i)
        failure = probe(config, max_events=max_events)
        if failure is None:
            passed += 1
            if log is not None:
                log(f"[{i + 1}/{iterations}] ok: {config.describe()}")
            continue
        if log is not None:
            log(
                f"[{i + 1}/{iterations}] FAIL [{failure.kind}/{failure.rule}] "
                f"{config.describe()}: {failure.message}"
            )
        shrunk, steps = (config, 0)
        if shrink_failures:
            shrunk, steps = shrink(config, same_failure_predicate(failure, max_events))
            if log is not None:
                log(f"shrunk in {steps} probe(s) to: {shrunk.describe()}")
        return FuzzResult(
            iterations=iterations,
            seed=seed,
            passed=passed,
            failure=failure,
            failing_config=config,
            shrunk_config=shrunk,
            shrink_steps=steps,
        )
    return FuzzResult(iterations=iterations, seed=seed, passed=passed)
