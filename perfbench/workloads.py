"""The benchmark's named workloads.

Each workload turns a seed into a fixed set of inputs and runs them once per
*pass*.  A pass returns every job's digest row, the deterministic work
counters read from public attributes after the run, and one entry per
failed operation (a job that raised, stalled or failed the output check).
Running the same pass twice must give the same rows and counters.  A pass
also times each of its units (a job, a stream slice or a scenario) with the
:class:`meter.Meter` it is given.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.check.fuzz import sample_scenario
from repro.check.harness import ScenarioConfig, run_scenario
from repro.engines.driver import run_job
from repro.experiments.clusters import multitenant_cluster
from repro.multijob.arrivals import ClosedLoopArrivals
from repro.multijob.service import ClusterService
from repro.workloads.puma import puma

from meter import Meter

#: Tolerance of the byte-conservation output check (same as repro.check).
BYTE_RTOL = 1e-6

FIG8_ENGINES = ("hadoop-64", "hadoop-nospec-64", "skewtune-64", "flexmap")
FIG8_BENCHMARKS = ("WC", "GR")
FIG8_SLOW_FRACTIONS = (0.05, 0.4)
#: Share of Table II's large (256 GB) inputs each fig8-single job reads.
FIG8_SCALE = 1.0 / 16

#: Jobs per stream; a cycle runs three streams (sub-seeds), each on its own
#: draw of slow nodes, so one unlucky draw does not set the cycle's cost.
SERVE_JOBS = 8
#: Jobs in flight at once: a closed loop submits the next job when one ends.
SERVE_WIDTH = 4
SERVE_SCALE = 0.125
#: The stream is timed in slices of this many simulated events (about 0.1
#: CPU seconds), so that the meter's reference runs fall between slices
#: and each slice is a unit like a job or a scenario.
SERVE_SLICE_EVENTS = 100

FUZZ_SCENARIOS = 300


@dataclass
class PassResult:
    """Outcome of one pass over a workload's inputs."""

    jobs: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)  # (job, engine, jct)
    counters: dict[str, int] = field(default_factory=dict)
    jcts: list[float] = field(default_factory=list)
    makespan: float = 0.0
    #: Time of each unit of the pass (a job, a stream slice, a scenario),
    #: as the pass's meter measured it.
    unit_times: list[float] = field(default_factory=list)
    #: (FlexMap JCT / hadoop-64 JCT) per paired job, where the pass has one.
    flex_ratios: list[float] = field(default_factory=list)

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    @property
    def digest(self) -> str:
        """Hash of the per-job ``(job, engine, jct)`` rows."""
        text = "\n".join(f"{j}|{e}|{jct!r}" for j, e, jct in self.rows)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def bytes_conserved(trace, input_mb: float) -> bool:
    """Map output of non-killed attempts adds up to the job's input."""
    return math.isclose(trace.data_processed_mb(), input_mb, rel_tol=BYTE_RTOL)


# ----------------------------------------------------------------------
# fig8-single: one AM at a time on the 40-node multi-tenant cluster
# ----------------------------------------------------------------------
def fig8_jobs(seed: int) -> list[tuple]:
    """``(benchmark, slow fraction, engine, input MB, seed)`` per job.

    The engines of one (benchmark, slow fraction) cell share a seed, so they
    see the same cluster and skew; the cells draw independent seeds, so one
    unlucky draw does not slow the whole pass.
    """
    cells = [(ab, frac) for ab in FIG8_BENCHMARKS for frac in FIG8_SLOW_FRACTIONS]
    return [
        (ab, frac, engine, puma(ab).large_gb * 1024.0 * FIG8_SCALE, seed * len(cells) + c)
        for c, (ab, frac) in enumerate(cells)
        for engine in FIG8_ENGINES
    ]


def run_fig8(seed: int, meter: Meter) -> PassResult:
    out = PassResult()
    baseline: dict[tuple, float] = {}
    for ab, frac, engine, input_mb, job_seed in fig8_jobs(seed):
        name = f"{ab}-{int(frac * 100)}pct"
        out.attempted += 1
        meter.start()
        try:
            result = run_job(
                lambda f=frac: multitenant_cluster(f), puma(ab), engine,
                seed=job_seed, input_mb=input_mb,
            )
        except Exception as exc:  # a crash or stall is a failed operation
            out.failures.append(f"{name}/{engine}: {type(exc).__name__}: {exc}")
            continue
        finally:
            meter.stop(out.unit_times)
        am = result.am
        if not am.job_done or not bytes_conserved(result.trace, result.job.input_mb):
            out.failures.append(f"{name}/{engine}: output check failed")
            continue
        out.jobs += 1
        out.rows.append((name, engine, result.jct))
        out.jcts.append(result.jct)
        out.makespan = max(out.makespan, result.trace.finish_time)
        out.add("events", am.sim.events_processed)
        out.add("grants", am.rm.containers_granted)
        out.add("heartbeat_rounds", am.heartbeat.rounds)
        out.add("records", len(result.trace.records))
        if engine == "hadoop-64":
            baseline[(ab, frac)] = result.jct
        elif engine == "flexmap" and (ab, frac) in baseline:
            out.flex_ratios.append(result.jct / baseline[(ab, frac)])
    return out


# ----------------------------------------------------------------------
# serve-mt40: concurrent jobs from a closed loop on one shared cluster
# ----------------------------------------------------------------------
def build_service(seed: int) -> ClusterService:
    """The serve-mt40 service, built but not run."""
    arrivals = ClosedLoopArrivals(
        n_jobs=SERVE_JOBS,
        width=SERVE_WIDTH,
        benchmarks=("WC", "GR", "HR", "HM"),
        engines=("flexmap", "hadoop-64"),
        input_scale=SERVE_SCALE,
    )
    return ClusterService(
        lambda: multitenant_cluster(0.4), arrivals, policy="fair", seed=seed
    )


def run_serve(seed: int, meter: Meter) -> PassResult:
    out = PassResult(attempted=SERVE_JOBS)
    meter.start()
    try:
        service = build_service(seed)
        sim = service.sim

        def mark_slice() -> None:
            if sim.events_processed % SERVE_SLICE_EVENTS == 0:
                meter.lap(out.unit_times)

        sim.install_step_interceptor(mark_slice)
        result = service.run(compute_slowdown=False)
    except Exception as exc:  # the whole stream is lost
        out.failures.extend(
            [f"stream: {type(exc).__name__}: {exc}"] * SERVE_JOBS
        )
        return out
    finally:
        meter.stop(out.unit_times)
    if len(result.outcomes) != SERVE_JOBS:
        out.failures.append(f"stream: {len(result.outcomes)}/{SERVE_JOBS} jobs completed")
    for outcome in result.outcomes:
        if not bytes_conserved(outcome.trace, outcome.input_mb):
            out.failures.append(f"{outcome.job_id}: output check failed")
            continue
        out.jobs += 1
        out.rows.append((outcome.job_id, outcome.engine, outcome.jct))
        out.jcts.append(outcome.jct)
        out.makespan = max(out.makespan, outcome.finish_time)
        out.add("records", len(outcome.trace.records))
    out.add("events", result.events_processed)
    out.add("grants", service.rm.containers_granted)
    by_engine: dict[str, list[float]] = {}
    for outcome in result.outcomes:
        by_engine.setdefault(outcome.engine, []).append(outcome.jct)
    if by_engine.get("flexmap") and by_engine.get("hadoop-64"):
        out.flex_ratios.append(
            float(np.mean(by_engine["flexmap"]) / np.mean(by_engine["hadoop-64"]))
        )
    return out


# ----------------------------------------------------------------------
# fuzz-checked: sampled scenarios with every invariant armed
# ----------------------------------------------------------------------
def fuzz_configs(seed: int) -> list[ScenarioConfig]:
    """The campaign's scenarios, sampled as ``repro fuzz --seed`` does."""
    rng = np.random.default_rng(seed)
    return [
        sample_scenario(rng, index=seed * 1_000_003 + i)
        for i in range(FUZZ_SCENARIOS)
    ]


def run_fuzz(seed: int, meter: Meter) -> PassResult:
    out = PassResult()
    for i, config in enumerate(fuzz_configs(seed)):
        out.attempted += 1
        meter.start()
        try:
            result = run_scenario(config, strict=True)
        except Exception as exc:  # violation, crash or stall
            out.failures.append(f"scenario {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            meter.stop(out.unit_times)
        out.add("violations", len(result.report.violations))
        if not result.report.ok or len(result.jcts) != config.n_jobs:
            out.failures.append(f"scenario {i}: {result.report.summary()}")
            continue
        out.jobs += len(result.jcts)
        for k, jct in enumerate(result.jcts):
            out.rows.append((f"s{i}-{k}", config.engine, jct))
            out.jcts.append(jct)
            out.makespan = max(out.makespan, jct)
        out.add("events", result.events)
        out.add("events_checked", result.report.events_checked)
        out.add("checks", sum(result.report.checks.values()))
        out.add("scenarios", 1)
    return out


#: Workload name -> (pass runner, passes per cycle).  A cycle runs one pass
#: per sub-seed, so a run's inputs average over several seeds' draws.
WORKLOADS = {
    "fig8-single": (run_fig8, 1),
    "serve-mt40": (run_serve, 3),
    "fuzz-checked": (run_fuzz, 6),
}


def sub_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of one cycle's passes; disjoint for distinct ``seed``."""
    return [seed * 1000 + k for k in range(WORKLOADS[workload][1])]


# ----------------------------------------------------------------------
# set-up: build a workload's first run and process its first event
# ----------------------------------------------------------------------
def first_event(workload: str, seed: int) -> None:
    """Construct the workload's first simulation and run one event.

    The drivers take an event budget; a budget of one stops them with a
    RuntimeError right after the first event, which is the point here.
    """
    try:
        if workload == "fig8-single":
            ab, frac, engine, input_mb, job_seed = fig8_jobs(seed)[0]
            run_job(
                lambda: multitenant_cluster(frac), puma(ab), engine,
                seed=job_seed, input_mb=input_mb, max_events=1,
            )
        elif workload == "serve-mt40":
            build_service(seed).run(max_events=1, compute_slowdown=False)
        elif workload == "fuzz-checked":
            config = sample_scenario(np.random.default_rng(seed), index=seed * 1_000_003)
            run_scenario(config, strict=True, max_events=1)
        else:
            raise ValueError(f"unknown workload: {workload}")
    except RuntimeError as exc:
        if "event budget" not in str(exc):
            raise
