"""Cross-engine and cross-config differential (metamorphic) checks.

The invariant checker validates one run against itself; this layer
validates runs against *each other* using properties that must hold no
matter what the schedule looks like:

``speed-scaling``
    Scaling every node speed by ``k`` scales the job completion time by
    roughly ``1/k``.  Only compute scales — network transfers and the
    heartbeat cadence do not — so the bound is deliberately loose, but a
    sizing bug that misreads node speed breaks it by far more than the
    slack.
``failure-free-equivalence``
    A run with an *empty* failure schedule, and a run whose only failure
    fires after job completion, must produce byte-for-byte the same trace
    as a run with no schedule installed at all: the fault-tolerance
    machinery must be invisible until a node actually dies mid-job.
``byte-parity``
    Every engine processes exactly the job's input bytes, so no engine may
    process fewer bytes than any other on the same config — FlexMap's
    elastic sizing must never lose data relative to stock Hadoop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from repro.check.harness import ScenarioConfig, run_config
from repro.cluster.failures import FailureSchedule, NodeFailure
from repro.obs import MemoryTraceEmitter, Observability

#: Engines compared by the byte-parity check.
PARITY_ENGINES: tuple[str, ...] = ("hadoop-64", "flexmap")
#: The speed-scaling check's factor on every node speed, and its relative
#: tolerance on the scaled JCT.
SCALING_FACTOR = 2.0
SCALING_TOL = 0.35


@dataclass(frozen=True)
class DiffReport:
    """One differential property's verdict."""

    name: str
    ok: bool
    detail: str


# ----------------------------------------------------------------------
def check_speed_scaling(config: ScenarioConfig) -> DiffReport:
    """JCT(speeds * k) ~= JCT(speeds) / k, within ``SCALING_TOL``, for
    k = ``SCALING_FACTOR``."""
    k = SCALING_FACTOR
    base = run_config(config)
    scaled_config = replace(config, speeds=tuple(s * k for s in config.speeds))
    scaled = run_config(scaled_config)
    expected = base.jct / k
    error = abs(scaled.jct - expected) / expected
    ok = error <= SCALING_TOL and scaled.jct < base.jct
    return DiffReport(
        name="speed-scaling",
        ok=ok,
        detail=(
            f"{config.engine}: jct={base.jct:.1f}s, x{k:g} speeds -> "
            f"{scaled.jct:.1f}s (ideal {expected:.1f}s, error {error:.1%}, "
            f"tol {SCALING_TOL:.0%})"
        ),
    )


def _trace_bytes(config: ScenarioConfig, failures: FailureSchedule | None) -> bytes:
    emitter = MemoryTraceEmitter()
    with Observability(trace=emitter) as obs:
        run_config(config, failures=failures, obs=obs)
    return json.dumps(emitter.events, sort_keys=True).encode()


def check_failure_free_equivalence(config: ScenarioConfig) -> DiffReport:
    """No-schedule, empty-schedule and post-completion-failure runs must
    emit identical trace streams."""
    baseline = _trace_bytes(config, failures=None)
    empty = _trace_bytes(config, failures=FailureSchedule([]))
    # A crash scheduled far beyond any plausible completion: the event sits
    # in the queue but never fires before the job finishes.
    late = _trace_bytes(
        config, failures=FailureSchedule([NodeFailure(1e9, "f00")])
    )
    if baseline != empty:
        return DiffReport(
            "failure-free-equivalence", False,
            f"{config.engine}: empty failure schedule perturbed the trace",
        )
    if baseline != late:
        return DiffReport(
            "failure-free-equivalence", False,
            f"{config.engine}: post-completion failure perturbed the trace",
        )
    return DiffReport(
        "failure-free-equivalence", True,
        f"{config.engine}: {len(baseline)} trace bytes identical across "
        "no/empty/late failure schedules",
    )


def check_byte_parity(config: ScenarioConfig) -> DiffReport:
    """Every engine processes the full input; none fewer than another."""
    processed: dict[str, float] = {}
    for engine in PARITY_ENGINES:
        result = run_config(replace(config, engine=engine))
        processed[engine] = result.trace.data_processed_mb()
    expected = config.input_mb
    for engine, mb in processed.items():
        if not math.isclose(mb, expected, rel_tol=1e-6):
            return DiffReport(
                "byte-parity", False,
                f"{engine} processed {mb:.6f} MB of {expected:.6f} MB input",
            )
    lo, hi = min(processed.values()), max(processed.values())
    if hi - lo > expected * 1e-6:
        return DiffReport(
            "byte-parity", False,
            f"engines disagree on processed bytes: {processed}",
        )
    return DiffReport(
        "byte-parity", True,
        f"{', '.join(PARITY_ENGINES)} each processed {expected:g} MB",
    )


def run_differentials(config: ScenarioConfig) -> list[DiffReport]:
    """All three properties on one config (map-only variant for scaling)."""
    map_only = replace(config, reducers=0, shuffle_ratio=0.0, failures=())
    no_failures = replace(config, failures=())
    return [
        check_speed_scaling(map_only),
        check_failure_free_equivalence(no_failures),
        check_byte_parity(no_failures),
    ]
