"""ApplicationMaster and the three phase collaborators it composes.

The AM owns the lifecycle every engine shares — accepting container
offers, launching task attempts, tracking the map -> shuffle/reduce phase
transition, recording the job trace — split across three collaborators:

* :class:`MapPhaseDriver` — map offer routing and attempt lifecycle
  (launch, completion, early-stop/kill bookkeeping, phase-end detection);
* :class:`ReducePhaseDriver` — the slowstart transition, reducer
  placement/launches, and the LATE-style backup race;
* :class:`TraceRecorder` — the :class:`~repro.sim.trace.JobTrace` plus all
  structured observability emissions.

Engines subclass :class:`ApplicationMaster` and override the small
strategy hooks (``prepare_maps``, ``select_map``, ``on_tick``, ...); the
AM reaches its collaborators as ``am.maps``, ``am.reduces`` and
``am.recorder``.

Hook points for ``repro.check``: the map attempt lifecycle lives on the
map driver (``am.maps.launch``, ``am.maps.finished``,
``am.maps.finalize_stopped``) and the job lifecycle on the AM
(``_finish_job``, ``on_node_failure``, ``prepare_maps``, ``requeue_map``).
Every internal call site goes through the instance attribute, so checkers
and mutation self-tests can wrap these methods on one instance.

Reducers are launched after the map phase completes (slowstart = 1.0, the
conservative Hadoop setting; the paper's analysis treats the phases as
sequential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.topology import Cluster
from repro.hdfs.namenode import NameNode
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.job import JobSpec
from repro.mapreduce.shuffle import IntermediateStore
from repro.mapreduce.split import InputSplit
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import JobTrace
from repro.yarn.container import Container
from repro.yarn.heartbeat import HeartbeatService
from repro.yarn.overhead import OverheadModel
from repro.yarn.resource_manager import ResourceManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import TaskRecord


@dataclass(frozen=True)
class AMConfig:
    """Settings shared by every engine."""

    block_size_mb: float = 64.0  # split size for fixed-size engines
    overhead: OverheadModel = field(default_factory=OverheadModel)
    heartbeat_period_s: float = 5.0
    obs: Observability | None = None  # structured tracing/metrics (off = None)


@dataclass
class MapAssignment:
    """A map task ready to launch on a granted container."""

    task_id: str
    split: InputSplit
    wave: int = 0
    speculative: bool = False
    extra_transfer_s: float = 0.0  # e.g. SkewTune repartition I/O
    alg1_bus: int = 0  # FlexMap: Algorithm 1's size before the tail cap


class TraceRecorder:
    """Owns the job trace and every structured observability emission.

    Collaborator of :class:`ApplicationMaster`: phase drivers report
    lifecycle milestones here, and the recorder writes the
    :class:`~repro.sim.trace.JobTrace` plus (when observability is
    attached) the typed JSONL trace events and metric counters.  Keeping
    all emission in one object guarantees a run without ``obs`` pays
    nothing and that refactors cannot reorder the event stream.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.trace = JobTrace(job_id=am.job.name)

    @property
    def obs(self) -> Observability | None:
        """The AM's observability bundle (None when disabled)."""
        return self.am.obs

    # -- record bookkeeping --------------------------------------------
    def add(self, record: "TaskRecord") -> None:
        """Append a finished/killed attempt record to the job trace."""
        self.trace.add(record)

    # -- job lifecycle --------------------------------------------------
    def job_submitted(self) -> None:
        """Stamp the submit time and emit ``job_start``."""
        am = self.am
        self.trace.submit_time = am.sim.now
        if self.obs is not None:
            self.obs.trace.emit(
                "job_start", am.sim.now, job=am.job.name, engine=am.engine_name
            )

    def job_finished(self) -> None:
        """Stamp the finish time and emit ``job_end``."""
        am = self.am
        self.trace.finish_time = am.sim.now
        if self.obs is not None:
            am.sim.record_obs()
            self.obs.trace.emit(
                "job_end", am.sim.now,
                jct=round(self.trace.jct, 3),
                maps=len(self.trace.maps()),
                reduces=len(self.trace.reduces()),
            )

    def heartbeat(self, round_no: int) -> None:
        """Per-round heartbeat counter + trace event."""
        am = self.am
        if self.obs is not None:
            self.obs.metrics.counter("am.heartbeat_rounds").inc()
            am.sim.record_obs()
            self.obs.trace.emit(
                "heartbeat", am.sim.now, round=round_no,
                running_maps=len(am.maps.running),
                running_reduces=len(am.reduces.running),
            )

    def container_offered(self) -> None:
        """Count an RM container offer reaching this AM."""
        if self.obs is not None:
            self.obs.metrics.counter("am.container_offers").inc()

    # -- map phase --------------------------------------------------------
    def map_launched(self, assignment: MapAssignment, node) -> None:
        """Record a map launch (metrics, trace event, phase-start stamp)."""
        am = self.am
        split = assignment.split
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.counter("am.containers_bound").inc()
            metrics.counter("am.maps_launched").inc()
            if assignment.speculative:
                metrics.counter("am.speculative_maps").inc()
                self.obs.trace.emit(
                    "speculate", am.sim.now,
                    task=assignment.task_id, node=node.node_id,
                )
            self.obs.trace.emit(
                "map_launch", am.sim.now,
                task=assignment.task_id, node=node.node_id,
                size_mb=round(split.size_mb, 3), n_bus=split.num_bus,
                wave=assignment.wave, speculative=assignment.speculative,
            )
        if math.isnan(self.trace.map_phase_start):
            self.trace.map_phase_start = am.sim.now

    def map_completed(self, attempt: TaskAttempt) -> None:
        """Record a successful map completion."""
        am = self.am
        if self.obs is not None:
            self.obs.metrics.counter("am.maps_completed").inc()
            self.obs.trace.emit(
                "map_complete", am.sim.now,
                task=attempt.task_id, node=attempt.node.node_id,
                runtime=round(attempt.record.runtime, 3),
                size_mb=round(attempt.record.size_mb, 3),
                productivity=round(attempt.record.productivity, 4),
            )

    def close_map_phase(self) -> None:
        """Stamp the map-phase end from the recorded map attempts."""
        self.trace.map_phase_end = max(
            (r.end for r in self.trace.records if r.kind == "map"),
            default=self.am.sim.now,
        )

    # -- reduce phase ------------------------------------------------------
    def reduce_launched(self, task_id: str, node, share: float, speculative: bool) -> None:
        """Record a reducer launch."""
        if self.obs is not None:
            self.obs.metrics.counter("am.reduces_launched").inc()
            self.obs.trace.emit(
                "reduce_launch", self.am.sim.now,
                task=task_id, node=node.node_id,
                size_mb=round(share, 3), speculative=speculative,
            )

    def reduce_completed(self, attempt: TaskAttempt) -> None:
        """Record a reducer completion."""
        if self.obs is not None:
            self.obs.metrics.counter("am.reduces_completed").inc()
            self.obs.trace.emit(
                "reduce_complete", self.am.sim.now,
                task=attempt.task_id, node=attempt.node.node_id,
                runtime=round(attempt.record.runtime, 3),
            )

    # -- fault tolerance ---------------------------------------------------
    def node_failed(self, node) -> None:
        """Record a node crash and the attempts it took down."""
        am = self.am
        if self.obs is not None:
            self.obs.trace.emit(
                "node_failure", am.sim.now,
                node=node.node_id,
                running_maps=sum(1 for a in am.maps.running if a.node is node),
                running_reduces=sum(
                    1 for a in am.reduces.running if a.node is node
                ),
            )


class MapPhaseDriver:
    """Map-phase collaborator: offer routing plus attempt lifecycle.

    Owns the running-attempt tables and the task-id sequence.  Launch and
    completion go through ``self.launch``/``self.finished``, so the
    correctness harness can wrap them on the driver instance.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.running: dict[TaskAttempt, MapAssignment] = {}
        self.containers: dict[TaskAttempt, Container] = {}
        self.task_seq = 0

    # -- offer routing ---------------------------------------------------
    def offer(self, container: Container) -> bool:
        """Route an RM offer to the engine's map selector; True if bound."""
        assignment = self.am.select_map(container)
        if assignment is None:
            return False
        self.launch(container, assignment)
        return True

    def next_task_id(self) -> str:
        """Fresh sequential map task id."""
        self.task_seq += 1
        return f"m{self.task_seq:05d}"

    # -- attempt lifecycle -------------------------------------------------
    def launch(self, container: Container, assignment: MapAssignment) -> None:
        """Occupy the container and start the map attempt's three phases."""
        am = self.am
        am.rm.occupy(container)
        node = container.node
        split = assignment.split
        overhead = am.config.overhead.sample(node.effective_speed, am._overhead_rng)
        transfer = (
            am.cluster.network.remote_read_time(split.remote_mb)
            + assignment.extra_transfer_s
        )
        noise = node.sample_work_noise(am._noise_rng)
        attempt = TaskAttempt(
            am.sim,
            node,
            task_id=assignment.task_id,
            kind="map",
            size_mb=split.size_mb,
            work_s=split.work_mb * am.job.map_cost_s_per_mb * noise,
            overhead_s=overhead,
            transfer_s=transfer,
            on_complete=lambda a: self.finished(a, container),
            wave=assignment.wave,
            speculative=assignment.speculative,
            num_bus=split.num_bus,
            local_mb=split.local_mb,
            remote_mb=split.remote_mb,
        )
        self.running[attempt] = assignment
        self.containers[attempt] = container
        am.recorder.map_launched(assignment, node)

    def finished(self, attempt: TaskAttempt, container: Container) -> None:
        """Successful completion: commit output, release, check phase end."""
        am = self.am
        assignment = self.running.pop(attempt)
        self.containers.pop(attempt, None)
        am.recorder.add(attempt.record)
        am.store.add(
            attempt.node.node_id,
            attempt.record.processed_mb * am.job.shuffle_ratio,
        )
        am.recorder.map_completed(attempt)
        am.on_map_complete(attempt, assignment)
        am.rm.release(container)
        self.check_phase_end()

    def finalize_stopped(self, attempt: TaskAttempt, container: Container) -> None:
        """Bookkeeping for an attempt stopped early with committed output."""
        am = self.am
        self.running.pop(attempt, None)
        self.containers.pop(attempt, None)
        am.recorder.add(attempt.record)
        am.store.add(
            attempt.node.node_id,
            attempt.record.processed_mb * am.job.shuffle_ratio,
        )
        am.rm.release(container)

    def finalize_killed(
        self, attempt: TaskAttempt, container: Container | None
    ) -> None:
        """Bookkeeping for an attempt killed with output discarded.

        ``container`` may be None for attempts whose container record was
        already dropped (defensive: a crash arriving mid-teardown must not
        turn into an AttributeError).
        """
        am = self.am
        self.running.pop(attempt, None)
        self.containers.pop(attempt, None)
        am.recorder.add(attempt.record)
        if container is not None:
            am.rm.release(container)

    def done(self) -> bool:
        """True once no map work is pending and nothing is running."""
        return not self.am.maps_pending() and not self.running

    def check_phase_end(self) -> None:
        """Close the map phase and hand over to the reduce driver."""
        am = self.am
        if not self.done() or am.reduces.started:
            if am.maps_pending():
                am.rm.request_offers()
            return
        am.recorder.close_map_phase()
        if am.job.map_only:
            am._finish_job()
            return
        am.reduces.begin()


class ReducePhaseDriver:
    """Reduce-phase collaborator: slowstart, placement, speculation race.

    Owns the pending/running reducer tables.  Launch and completion go
    through ``self.launch``/``self.finished``, as on the map side.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.running: dict[TaskAttempt, Container] = {}
        self.started = False
        self.pending = 0
        self.seq = 0
        self.speculated_ids: set[str] = set()
        self.done_ids: set[str] = set()

    # -- phase transition --------------------------------------------------
    def begin(self) -> None:
        """Slowstart boundary: maps done, request containers for reducers."""
        am = self.am
        self.started = True
        self.pending = am.job.num_reducers
        am.rm.request_offers()

    # -- offer routing -------------------------------------------------------
    def offer(self, container: Container) -> bool:
        """Route an RM offer: pending reducer, else maybe a backup copy."""
        am = self.am
        if self.started and self.pending > 0:
            if not am.select_reduce_node_ok(container):
                return False
            self.launch(container)
            return True
        if self.started and self.running:
            return self.maybe_speculate(container)
        return False

    # -- attempt lifecycle ---------------------------------------------------
    def launch(
        self, container: Container, task_id: str | None = None, speculative: bool = False
    ) -> None:
        """Occupy the container and start a reduce attempt."""
        am = self.am
        am.rm.occupy(container)
        if not speculative:
            self.pending -= 1
            self.seq += 1
            task_id = f"r{self.seq:04d}"
        node = container.node
        share = am.store.reducer_share_mb(am.job.num_reducers)
        cross = am.store.cross_node_mb(node.node_id, share)
        overhead = am.config.overhead.sample(node.effective_speed, am._overhead_rng)
        noise = node.sample_work_noise(am._noise_rng)
        attempt = TaskAttempt(
            am.sim,
            node,
            task_id=task_id,
            kind="reduce",
            size_mb=share,
            work_s=share * am.job.reduce_cost_s_per_mb * noise,
            overhead_s=overhead,
            transfer_s=am.cluster.network.shuffle_time(cross),
            on_complete=lambda a: self.finished(a, container),
            speculative=speculative,
            local_mb=share - cross,
            remote_mb=cross,
        )
        self.running[attempt] = container
        am.recorder.reduce_launched(task_id, node, share, speculative)

    def finished(self, attempt: TaskAttempt, container: Container) -> None:
        """Reducer completion; the first copy home wins a speculation race."""
        am = self.am
        self.running.pop(attempt, None)
        am.recorder.add(attempt.record)
        am.recorder.reduce_completed(attempt)
        self.done_ids.add(attempt.task_id)
        # First copy home wins: kill the loser of a speculation race.
        for copy, copy_container in list(self.running.items()):
            if copy.task_id == attempt.task_id:
                copy.kill()
                self.running.pop(copy, None)
                am.recorder.add(copy.record)
                am.rm.release(copy_container)
        am.rm.release(container)
        if self.pending == 0 and not self.running:
            am._finish_job()

    # -- speculation -----------------------------------------------------------
    def maybe_speculate(self, container: Container) -> bool:
        """Back up the worst reduce straggler on an idle container (LATE)."""
        am = self.am
        if not am._reduce_speculation_enabled():
            return False
        done = [
            r
            for r in am.trace.records
            if r.kind == "reduce" and not r.killed and r.runtime > 0
        ]
        fresh = (
            sum(r.runtime for r in done) / len(done) if done else math.inf
        )
        candidates = [
            a
            for a in self.running
            if a.task_id not in self.speculated_ids
            and not a.record.speculative
            and a.elapsed() >= 30.0
            and a.progress() < 0.9
            and a.est_time_left() > fresh
        ]
        if not candidates:
            return False
        victim = max(candidates, key=lambda a: (a.est_time_left(), a.task_id))
        self.speculated_ids.add(victim.task_id)
        self.launch(container, task_id=victim.task_id, speculative=True)
        return True


class ApplicationMaster:
    """Engine-agnostic job driver composing the three phase collaborators."""

    engine_name = "base"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rm: ResourceManager,
        namenode: NameNode,
        job: JobSpec,
        streams: RandomStreams,
        config: AMConfig | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.rm = rm
        self.namenode = namenode
        self.job = job
        self.streams = streams
        self.config = config or AMConfig()
        self.obs = self.config.obs
        self.store = IntermediateStore()
        self.heartbeat = HeartbeatService(sim, self.config.heartbeat_period_s)
        self.recorder = TraceRecorder(self)
        self.maps = MapPhaseDriver(self)
        self.reduces = ReducePhaseDriver(self)
        self.job_done = False
        # Overhead/noise draws are interleaved across map and reduce
        # launches, so both drivers share the AM-level generators.
        self._overhead_rng = streams.stream("overhead")
        self._noise_rng = streams.stream("exec-noise")

    @property
    def trace(self) -> JobTrace:
        """The job trace owned by the :class:`TraceRecorder`."""
        return self.recorder.trace

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def submit(self) -> None:
        """Submit the job: prepare map work and start taking containers."""
        self.recorder.job_submitted()
        self.prepare_maps()
        self.heartbeat.subscribe(self._on_heartbeat)
        self.heartbeat.start()
        self.rm.register(self)
        self.rm.start()

    def run_to_completion(self, max_events: int | None = None) -> JobTrace:
        """Convenience: submit and drive the simulator until the job ends."""
        self.submit()
        guard = max_events if max_events is not None else 50_000_000
        while not self.job_done and self.sim.step():
            guard -= 1
            if guard <= 0:
                raise RuntimeError(f"job {self.job.name} exceeded event budget")
        if not self.job_done:
            raise RuntimeError(f"job {self.job.name} stalled: simulator idle")
        return self.trace

    # ------------------------------------------------------------------
    # subclass API (strategy hooks)
    # ------------------------------------------------------------------
    def prepare_maps(self) -> None:
        """Set up pending map work.  Subclasses must implement."""
        raise NotImplementedError

    def select_map(self, container: Container) -> MapAssignment | None:
        """Pick a map task for the offered container, or None to decline."""
        raise NotImplementedError

    def maps_pending(self) -> bool:
        """True while unlaunched map work remains."""
        raise NotImplementedError

    def on_map_complete(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        """Hook: called after a map attempt finishes successfully."""

    def select_reduce_node_ok(self, container: Container) -> bool:
        """Placement filter for reducers; base accepts any node (stock)."""
        return True

    def on_tick(self, round_no: int) -> None:
        """Hook: called every heartbeat round (speculation checks etc.)."""

    # ------------------------------------------------------------------
    # container offers
    # ------------------------------------------------------------------
    def on_container(self, container: Container) -> bool:
        """RM offer: return True iff a task was launched on the container."""
        if self.job_done:
            return False
        self.recorder.container_offered()
        if not self.maps.done():
            return self.maps.offer(container)
        return self.reduces.offer(container)

    # ------------------------------------------------------------------
    # reduce phase
    # ------------------------------------------------------------------
    def _reduce_speculation_enabled(self) -> bool:
        """Reduce backups run whenever the engine's speculator is enabled —
        YARN speculates reduces exactly as it does maps."""
        manager = getattr(self, "speculation", None)
        return manager is not None and manager.config.enabled

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def requeue_map(self, assignment: MapAssignment) -> None:
        """Return a lost attempt's input to the unprocessed pool.

        Engines override with their own bookkeeping (locality index,
        BU binder).  The base implementation refuses rather than silently
        lose data.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot requeue maps")

    def _has_live_copy(self, task_id: str, other_than: TaskAttempt) -> bool:
        return any(
            a.task_id == task_id and a is not other_than for a in self.maps.running
        )

    def on_node_failure(self, node) -> None:
        """Crash handling: kill the node's attempts and re-enqueue the work.

        Map input lost with the node is re-enqueued (unless another copy of
        the task is still running elsewhere — speculation's silver lining);
        reducers return to pending.  Intermediate map output is modelled as
        already fetched/replicated, so completed maps are not re-executed —
        a simplification noted in DESIGN.md.

        Safe against the two untestable-in-production edges: a crash of an
        already-dead node finds no running attempts (kill/requeue are
        skipped per-attempt, so nothing is re-enqueued twice), and a crash
        arriving after job completion only marks the node dead — the AM has
        released every container and must not resurrect bookkeeping.
        """
        node.fail()
        if self.job_done:
            return
        self.recorder.node_failed(node)
        for attempt, assignment in list(self.maps.running.items()):
            if attempt.node is not node:
                continue
            if attempt.killed or attempt.finished:
                continue  # already terminated; never requeue twice
            container = self.maps.containers.get(attempt)
            attempt.kill()
            if not self._has_live_copy(attempt.task_id, other_than=attempt):
                self.requeue_map(assignment)
            self.maps.finalize_killed(attempt, container)
        for attempt, container in list(self.reduces.running.items()):
            if attempt.node is not node:
                continue
            attempt.kill()
            self.reduces.running.pop(attempt, None)
            self.recorder.add(attempt.record)
            self.reduces.speculated_ids.discard(attempt.task_id)
            still_running = any(
                a.task_id == attempt.task_id for a in self.reduces.running
            )
            if attempt.task_id not in self.reduces.done_ids and not still_running:
                self.reduces.pending += 1
            self.rm.release(container)
        self.rm.request_offers()

    # ------------------------------------------------------------------
    def _finish_job(self) -> None:
        if self.job_done:
            return
        self.job_done = True
        self.heartbeat.stop()
        self.rm.unregister(self)
        self.recorder.job_finished()

    def _on_heartbeat(self, round_no: int) -> None:
        self.recorder.heartbeat(round_no)
        self.on_tick(round_no)
        # Engines with placement filters (FlexMap's reduce bias) may decline
        # every free container in a round; retry on the next heartbeat so
        # pending reducers cannot stall.  Running reduces also need periodic
        # offers so idle containers can launch backups.
        if self.reduces.started and (self.reduces.pending > 0 or self.reduces.running):
            self.rm.request_offers()
