"""The multi-job service driver: many concurrent AMs, one shared cluster.

A :class:`ClusterService` is a :class:`~repro.engines.driver.Testbed` (one
Simulator, Cluster, NameNode and ResourceManager) whose RM routes
container offers through the configured cluster scheduling policy with
per-job slot accounting.  Jobs from an arrival process are submitted at
their arrival times; each gets its own ApplicationMaster (any engine from
the single-job registry — FlexMap jobs co-run with stock-Hadoop jobs).

FlexMap AMs share **one** SpeedMonitor: IPS knowledge about a node learned
by one job's containers immediately informs every other job's task sizing,
exactly as a long-lived cluster service would accumulate it.  The monitor
numbers the heartbeat rounds it ingests itself, so every AM's reports land
in one global round sequence with no renumbering here.

Every job draws its stochastic inputs (skew, overhead jitter, exec noise)
from a :meth:`~repro.sim.random.RandomStreams.child` view namespaced by
its job id, so adding a job to the mix never perturbs the draws other jobs
see, and a fixed seed replays the whole service run bit-identically.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

from repro.core.speed_monitor import SpeedMonitor
from repro.engines.base import ApplicationMaster
from repro.engines.driver import Testbed, run_job
from repro.engines.flexmap import is_flexmap
from repro.engines.registry import resolve_engine
from repro.mapreduce.job import JobSpec
from repro.multijob.arrivals import ArrivalProcess, JobRequest
from repro.multijob.policies import ClusterSchedulerPolicy, make_policy
from repro.multijob.slo import SLOReport, compute_slo
from repro.obs import Observability
from repro.sim.trace import JobTrace


@dataclass
class JobOutcome:
    """One finished job's service-level record."""

    job_id: str
    benchmark: str
    engine: str
    queue: str
    weight: float
    input_mb: float
    submit_time: float
    finish_time: float
    jct: float
    trace: JobTrace
    slowdown: float | None = None  # vs. isolated run; filled by the SLO pass


@dataclass
class _RunningJob:
    request: JobRequest
    job: JobSpec
    am: ApplicationMaster
    job_id: str
    engine_name: str


@dataclass
class ServiceResult:
    """Everything a service run produced."""

    cluster_name: str
    policy: str
    seed: int
    outcomes: list[JobOutcome]
    utilization: list[tuple[float, float]]  # (sim time, busy-slot fraction)
    events_processed: int

    @functools.cached_property
    def report(self) -> SLOReport:
        """The SLO report, built on first read."""
        return compute_slo(
            self.outcomes,
            self.utilization,
            cluster_name=self.cluster_name,
            policy=self.policy,
        )


class ClusterService(Testbed):
    """Drives an arrival stream of jobs over one shared simulated cluster.

    ``policy`` is a registry name or a policy object; capacity queues with
    their own shares come as ``CapacityPolicy(queues)``.
    """

    def __init__(
        self,
        cluster_factory: Callable[[], object],
        arrivals: ArrivalProcess,
        policy: str | ClusterSchedulerPolicy = "fair",
        seed: int = 0,
        utilization_period_s: float = 5.0,
        obs: Observability | None = None,
        failures=None,
        check=None,
    ) -> None:
        if utilization_period_s <= 0:
            raise ValueError(f"non-positive sampling period: {utilization_period_s}")
        if not math.isfinite(utilization_period_s):
            raise ValueError(f"non-finite sampling period: {utilization_period_s}")
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        super().__init__(
            cluster_factory, seed=seed, scheduler=self.policy,
            obs=obs, failures=failures, check=check,
        )
        self.arrivals = arrivals
        self.cluster_factory = cluster_factory
        self.utilization_period_s = utilization_period_s
        self.monitor = SpeedMonitor(self.sim)

        self.outcomes: list[JobOutcome] = []
        self.utilization: list[tuple[float, float]] = []
        self._running: list[_RunningJob] = []
        self._job_seq = 0
        self._expected = arrivals.total_jobs

    # ------------------------------------------------------------------
    # progress accounting (jobs_submitted == jobs_completed + jobs_running,
    # jobs_expected == jobs_submitted + jobs_pending — the balance the
    # composed failure tests assert)
    # ------------------------------------------------------------------
    @property
    def jobs_expected(self) -> int:
        return self._expected

    @property
    def jobs_submitted(self) -> int:
        return self._job_seq

    @property
    def jobs_running(self) -> int:
        return len(self._running)

    @property
    def jobs_completed(self) -> int:
        return len(self.outcomes)

    @property
    def jobs_pending(self) -> int:
        """Arrivals not yet submitted to the cluster."""
        return self._expected - self._job_seq

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _schedule_request(self, request: JobRequest) -> None:
        submit_at = max(request.submit_time, self.sim.now)
        self.sim.schedule_at(submit_at, lambda: self._submit(request))

    def _submit(self, request: JobRequest) -> None:
        job_id = f"j{self._job_seq:03d}"
        self._job_seq += 1
        spec = resolve_engine(request.engine)
        base_job = request.workload.job(input_mb=request.input_mb)
        # Unique per-submission identity: two WC jobs must not collide on
        # the NameNode namespace or in the shared trace stream.
        job = dataclasses.replace(
            base_job,
            name=f"{job_id}-{base_job.name}",
            input_file=f"{job_id}-{base_job.input_file}",
        )
        streams = self.streams.child(job_id)
        self.stage(job, spec.block_size_mb, request.workload, streams)
        am = spec.build(
            self.sim, self.cluster, self.rm, self.namenode, job, streams,
            extra={"monitor": self.monitor} if is_flexmap(spec) else None,
        )
        # Register before submit() so queue/weight stick (submit()'s own
        # register call is an idempotent no-op).
        self.rm.register(am, queue=request.queue, weight=request.weight)
        if self.sim.obs is not None:
            self.sim.obs.metrics.counter("service.jobs_submitted").inc()
            self.sim.obs.trace.emit(
                "job_submit", self.sim.now,
                job=job.name, engine=spec.name, queue=request.queue,
                input_mb=round(job.input_mb, 3),
            )
        self._running.append(_RunningJob(request, job, am, job_id, spec.name))
        am.submit()

    # ------------------------------------------------------------------
    # completion + sampling
    # ------------------------------------------------------------------
    def _collect_finished(self) -> None:
        for entry in list(self._running):
            if not entry.am.job_done:
                continue
            self._running.remove(entry)
            outcome = JobOutcome(
                job_id=entry.job_id,
                benchmark=entry.request.workload.abbrev,
                engine=entry.engine_name,
                queue=entry.request.queue,
                weight=entry.request.weight,
                input_mb=entry.job.input_mb,
                submit_time=entry.am.trace.submit_time,
                finish_time=entry.am.trace.finish_time,
                jct=entry.am.trace.jct,
                trace=entry.am.trace,
            )
            self.outcomes.append(outcome)
            if self.sim.obs is not None:
                self.sim.obs.metrics.counter("service.jobs_completed").inc()
                self.sim.obs.metrics.histogram("service.jct").observe(outcome.jct)
            nxt = self.arrivals.next_on_completion(len(self.outcomes), self.sim.now)
            if nxt is not None:
                self._schedule_request(nxt)

    def _sample_utilization(self) -> None:
        busy = sum(n.busy_slots for n in self.cluster.nodes)
        frac = busy / self.cluster.total_slots
        self.utilization.append((self.sim.now, frac))
        if self.sim.obs is not None:
            self.sim.obs.metrics.gauge("service.busy_slot_frac").set(frac)
        if len(self.outcomes) < self._expected:
            self.sim.schedule(self.utilization_period_s, self._sample_utilization)

    # ------------------------------------------------------------------
    def run(
        self,
        max_events: int | None = None,
        compute_slowdown: bool = True,
    ) -> ServiceResult:
        """Submit the arrival stream and drive the cluster to completion.

        ``compute_slowdown`` additionally runs each distinct
        (benchmark, engine, input size) combination alone on a fresh
        identical cluster to compute per-job slowdowns, which the result's
        :class:`~repro.multijob.slo.SLOReport` then includes.
        """
        if self.sim.obs is not None:
            self.sim.obs.trace.emit(
                "service_meta", self.sim.now,
                cluster=self.cluster.name, policy=self.policy.name,
                seed=self.seed, jobs=self._expected,
            )
        for request in self.arrivals.initial():
            self._schedule_request(request)
        self._sample_utilization()
        guard = max_events if max_events is not None else 500_000_000
        rm = self.rm
        while len(self.outcomes) < self._expected:
            if not self.sim.step():
                raise RuntimeError(
                    f"service stalled: {len(self.outcomes)}/{self._expected} "
                    f"jobs done, simulator idle at t={self.sim.now:.1f}"
                )
            guard -= 1
            if guard <= 0:
                raise RuntimeError("service exceeded event budget")
            # Every running job is registered until the event that ends it,
            # in which its AM unregisters.
            if rm.num_registered < len(self._running):
                self._collect_finished()
        if self.sim.obs is not None:
            self.sim.record_obs()
            self.sim.obs.trace.emit(
                "service_end", self.sim.now,
                jobs=len(self.outcomes),
                events=self.sim.events_processed,
            )
        if compute_slowdown:
            baselines = compute_isolated_baselines(
                self.cluster_factory, self.outcomes, seed=self.seed
            )
            for outcome in self.outcomes:
                key = (outcome.benchmark, outcome.engine, round(outcome.input_mb, 6))
                isolated = baselines[key]
                outcome.slowdown = outcome.jct / isolated if isolated > 0 else float("inf")
        return ServiceResult(
            cluster_name=self.cluster.name,
            policy=self.policy.name,
            seed=self.seed,
            outcomes=self.outcomes,
            utilization=self.utilization,
            events_processed=self.sim.events_processed,
        )


def compute_isolated_baselines(
    cluster_factory: Callable[[], object],
    outcomes: list[JobOutcome],
    seed: int,
) -> dict[tuple[str, str, float], float]:
    """Isolated-run JCT per distinct (benchmark, engine, input size).

    Each combination runs alone on a fresh cluster from the same factory
    under the same seed — the denominator of the per-job slowdown metric.
    """
    from repro.workloads.puma import puma  # local: avoid cycle at import time

    baselines: dict[tuple[str, str, float], float] = {}
    for outcome in outcomes:
        key = (outcome.benchmark, outcome.engine, round(outcome.input_mb, 6))
        if key in baselines:
            continue
        result = run_job(
            cluster_factory,
            puma(outcome.benchmark),
            outcome.engine,
            seed=seed,
            input_mb=outcome.input_mb,
        )
        baselines[key] = result.jct
    return baselines
