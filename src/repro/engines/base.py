"""ApplicationMaster and the three phase collaborators it composes.

The AM owns the lifecycle every engine shares — accepting container
offers, starting, ending and racing task attempts, tracking the map ->
shuffle/reduce phase transition, recording the job trace — split across
three collaborators:

* :class:`MapPhaseDriver` — map offer routing and the map side of the
  attempt lifecycle (completion, early stop, phase-end detection);
* :class:`ReducePhaseDriver` — the slowstart transition, reducer
  placement/launches and LATE-style reduce backups;
* :class:`TraceRecorder` — the :class:`~repro.sim.trace.JobTrace` plus all
  structured observability emissions.

Engines subclass :class:`ApplicationMaster` and override the small
strategy hooks (``prepare_maps``, ``select_map``, ``on_tick``, ...); the
AM reaches its collaborators as ``am.maps``, ``am.reduces`` and
``am.recorder``.

Every attempt of either kind starts in :meth:`ApplicationMaster.start_attempt`
and is killed in :meth:`ApplicationMaster.kill_attempt`, and
:meth:`ApplicationMaster.first_copy_wins` settles both phases' backup
races.  Each attempt end has one call site: the drivers' ``finished``
(commit), ``MapPhaseDriver.finalize_stopped`` (SkewTune's partial commit)
and ``kill_attempt`` (output discarded), and
:meth:`ApplicationMaster.on_node_failure` is the one place lost map
input is requeued.  Every milestone reaches the :class:`TraceRecorder`,
which also feeds ``repro.check``: when ``recorder.check`` holds an
:class:`~repro.check.InvariantChecker` ledger, the recorder forwards map
launches, completions, stops and requeues plus the job end to it.

In the last map wave, the heartbeat of an engine that backs up stragglers
(:meth:`ApplicationMaster._backs_up_stragglers`) asks the RM for an offer
round, so idle slots reach the straggler scan.

After a declined offer the ResourceManager asks
:meth:`ApplicationMaster.declines_every_node` whether the decline could
have depended on the node.  Once only a node-blind straggler scan is left
(LATE's map and reduce backups, SkewTune's mitigation), the answer is yes
and the RM offers the AM nothing more in that round, so each scan runs once
per round instead of once per free slot.

Reducers are launched after the map phase completes (slowstart = 1.0, the
conservative Hadoop setting; the paper's analysis treats the phases as
sequential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
from repro.yarn.overhead import sample as sample_overhead
from repro.yarn.resource_manager import ResourceManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import TaskRecord


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

    It also keeps :attr:`completed_runtimes`, the runtimes of the non-killed
    attempts of each kind with a positive runtime, in trace order, from
    which the speculator takes its fresh-copy estimate without rescanning
    the trace.  Records are final when they are added.
    """

    #: Per-AM ledger of a :class:`repro.check.InvariantChecker`, set while
    #: one is armed on the run; it receives the map and job milestones.
    check = None

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.obs = am.obs
        self.trace = JobTrace(job_id=am.job.name)
        self.completed_runtimes: dict[str, list[float]] = {"map": [], "reduce": []}

    # -- record bookkeeping --------------------------------------------
    def add(self, record: "TaskRecord") -> None:
        """Append a finished/killed attempt record to the job trace."""
        self.trace.add(record)
        if not record.killed and record.runtime > 0:
            self.completed_runtimes[record.kind].append(record.runtime)

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
        if self.check is not None:
            self.check.job_finished()

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

    def container_offered(self, container: Container) -> None:
        """Count an RM container offer reaching this AM; a checked RM's
        re-offer of a closed round (``container.reoffer``) is not one."""
        if self.obs is not None and not container.reoffer:
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
        if self.check is not None:
            self.check.map_launched(assignment)

    def map_completed(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        """Record a successful map completion."""
        am = self.am
        if self.check is not None:
            self.check.map_completed(assignment)
        if self.obs is not None:
            self.obs.metrics.counter("am.maps_completed").inc()
            self.obs.trace.emit(
                "map_complete", am.sim.now,
                task=attempt.task_id, node=attempt.node.node_id,
                runtime=round(attempt.record.runtime, 3),
                size_mb=round(attempt.record.size_mb, 3),
                productivity=round(attempt.record.productivity, 4),
            )

    def map_stopped(self, assignment: MapAssignment) -> None:
        """An attempt stopped early committed its partial output."""
        if self.check is not None:
            self.check.map_stopped(assignment)

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
    def map_requeued(self, assignment: MapAssignment) -> None:
        """Record a lost map attempt's input returning to the pool."""
        if self.obs is not None:
            self.obs.metrics.counter("am.maps_requeued").inc()
            self.obs.trace.emit(
                "map_requeue", self.am.sim.now,
                task=assignment.task_id, n_bus=assignment.split.num_bus,
            )
        if self.check is not None:
            self.check.map_requeued(assignment)

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

    Owns the running-attempt table, the ids of speculated tasks and the
    task-id sequence.  An attempt ends in exactly one of :meth:`finished`,
    :meth:`finalize_stopped` or :meth:`kill`.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.running: dict[TaskAttempt, MapAssignment] = {}
        self.speculated_ids: set[str] = set()
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
        """Start the map attempt of ``assignment`` on the container."""
        am = self.am
        split = assignment.split
        attempt = am.start_attempt(
            container, self.finished, assignment.task_id, "map", split.size_mb,
            work_s=split.work_mb * am.job.map_cost_s_per_mb,
            transfer_s=am.cluster.network.remote_read_time(split.remote_mb)
            + assignment.extra_transfer_s,
            wave=assignment.wave,
            speculative=assignment.speculative,
            num_bus=split.num_bus,
            local_mb=split.local_mb,
            remote_mb=split.remote_mb,
        )
        self.running[attempt] = assignment
        am.recorder.map_launched(assignment, container.node)

    def finished(self, attempt: TaskAttempt) -> None:
        """Successful completion: commit output, release, check phase end."""
        am = self.am
        assignment = self.running.pop(attempt)
        self._commit(attempt)
        am.recorder.map_completed(attempt, assignment)
        am.first_copy_wins(attempt, self.running, self.speculated_ids)
        am.on_map_complete(attempt, assignment)
        am.rm.release(am.containers.pop(attempt))
        self.check_phase_end()

    def finalize_stopped(self, attempt: TaskAttempt) -> None:
        """Bookkeeping for an attempt stopped early with committed output."""
        am = self.am
        am.recorder.map_stopped(self.running.pop(attempt))
        self._commit(attempt)
        am.rm.release(am.containers.pop(attempt))

    def _commit(self, attempt: TaskAttempt) -> None:
        """Record the attempt and store its map output on its node."""
        am = self.am
        am.recorder.add(attempt.record)
        am.store.add(
            attempt.node.node_id,
            attempt.record.processed_mb * am.job.shuffle_ratio,
        )

    def kill(self, attempt: TaskAttempt) -> MapAssignment:
        """Kill a running attempt; returns its assignment, whose input the
        caller may requeue."""
        return self.am.kill_attempt(attempt, self.running)

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

    Owns the pending/running reducer tables.  An attempt ends in
    :meth:`finished` or :meth:`kill`, as on the map side.
    """

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.running: dict[TaskAttempt, None] = {}  # a set in launch order
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
        """Start a reduce attempt (a backup of ``task_id`` if
        ``speculative``) on the container."""
        am = self.am
        if not speculative:
            self.pending -= 1
            self.seq += 1
            task_id = f"r{self.seq:04d}"
        share = am.store.reducer_share_mb(am.job.num_reducers)
        cross = am.store.cross_node_mb(container.node_id, share)
        attempt = am.start_attempt(
            container, self.finished, task_id, "reduce", share,
            work_s=share * am.job.reduce_cost_s_per_mb,
            transfer_s=am.cluster.network.shuffle_time(cross),
            speculative=speculative,
            local_mb=share - cross,
            remote_mb=cross,
        )
        self.running[attempt] = None
        am.recorder.reduce_launched(task_id, container.node, share, speculative)

    def finished(self, attempt: TaskAttempt) -> None:
        """Reducer completion; the first copy home wins a speculation race."""
        am = self.am
        self.running.pop(attempt)
        am.recorder.add(attempt.record)
        am.recorder.reduce_completed(attempt)
        self.done_ids.add(attempt.task_id)
        am.first_copy_wins(attempt, self.running, self.speculated_ids)
        am.rm.release(am.containers.pop(attempt))
        if self.pending == 0 and not self.running:
            am._finish_job()

    def kill(self, attempt: TaskAttempt) -> None:
        """Kill a running reducer, discard its output, free its container."""
        self.am.kill_attempt(attempt, self.running)

    # -- speculation -----------------------------------------------------------
    def maybe_speculate(self, container: Container) -> bool:
        """Back up the worst reduce straggler on an idle container (LATE)."""
        am = self.am
        if not am._backs_up_stragglers():
            return False
        candidates = am.speculation.stragglers(
            self.running, "reduce", self.speculated_ids
        )
        if not candidates:
            return False
        victim = max(candidates, key=lambda a: (a.est_time_left(), a.task_id))
        self.speculated_ids.add(victim.task_id)
        self.launch(container, task_id=victim.task_id, speculative=True)
        return True


class ApplicationMaster:
    """Engine-agnostic job driver composing the three phase collaborators."""

    engine_name = "base"
    #: Unprocessed-input :class:`~repro.hdfs.locality.LocalityIndex`, or
    #: None before ``prepare_maps`` (and for engines without one).  The
    #: speculator and ``repro.check`` read it to see the last map wave.
    index = None
    #: The engine's :class:`~repro.engines.speculation.SpeculationManager`,
    #: or None for engines without one.
    speculation = None

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rm: ResourceManager,
        namenode: NameNode,
        job: JobSpec,
        streams: RandomStreams,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.rm = rm
        self.namenode = namenode
        self.job = job
        self.streams = streams
        #: The run's observability, owned by the simulator.
        self.obs: Observability | None = sim.obs
        self.store = IntermediateStore()
        self.heartbeat = HeartbeatService(sim)
        self.recorder = TraceRecorder(self)
        self.maps = MapPhaseDriver(self)
        self.reduces = ReducePhaseDriver(self)
        #: The container of every running map and reduce attempt.
        self.containers: dict[TaskAttempt, Container] = {}
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
    # attempt lifecycle, shared by both phases
    # ------------------------------------------------------------------
    def start_attempt(
        self,
        container: Container,
        on_done: Callable[[TaskAttempt], None],
        task_id: str,
        kind: str,
        size_mb: float,
        work_s: float,
        transfer_s: float,
        **record,
    ) -> TaskAttempt:
        """Occupy ``container`` and start an attempt on its node.

        Draws the startup overhead and then the work noise (which scales
        ``work_s``) from the AM's streams; ``record`` holds the attempt's
        remaining :class:`~repro.sim.trace.TaskRecord` fields.
        """
        self.rm.occupy(container)
        node = container.node
        overhead = sample_overhead(node.effective_speed, self._overhead_rng)
        noise = node.sample_work_noise(self._noise_rng)
        attempt = TaskAttempt(
            self.sim, node, task_id=task_id, kind=kind, size_mb=size_mb,
            work_s=work_s * noise, overhead_s=overhead, transfer_s=transfer_s,
            on_complete=on_done, **record,
        )
        self.containers[attempt] = container
        return attempt

    def kill_attempt(self, attempt: TaskAttempt, running: dict):
        """Kill a running attempt, discard its output and free its
        container; returns its entry in its phase's ``running`` table."""
        attempt.kill()
        entry = running.pop(attempt)
        self.recorder.add(attempt.record)
        self.rm.release(self.containers.pop(attempt))
        return entry

    def first_copy_wins(
        self, attempt: TaskAttempt, running: dict, speculated: set[str]
    ) -> None:
        """``attempt`` finished first: kill the other running copies of its
        task.  A copy exists only while the task id is in ``speculated``."""
        if attempt.task_id in speculated:
            for copy in [a for a in running if a.task_id == attempt.task_id]:
                self.kill_attempt(copy, running)

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
        """Hook: called after a map attempt finishes successfully (and its
        other copies, if any, were killed)."""

    def select_reduce_node_ok(self, container: Container) -> bool:
        """Placement filter for reducers; base accepts any node (stock)."""
        return True

    def on_tick(self, round_no: int) -> None:
        """Hook: called every heartbeat round, before the base AM's own
        offer requests (delay-scheduling retries, IPS reports)."""

    # ------------------------------------------------------------------
    # container offers
    # ------------------------------------------------------------------
    def on_container(self, container: Container) -> bool:
        """RM offer: return True iff a task was launched on the container."""
        if self.job_done:
            return False
        self.recorder.container_offered(container)
        if not self.maps.done():
            return self.maps.offer(container)
        return self.reduces.offer(container)

    def declines_every_node(self) -> bool:
        """Whether the offer just declined would be declined on every node
        for the rest of the ResourceManager's offer round.

        True when the job is done; when maps are running but none is
        pending, so only the map straggler scan (LATE's or SkewTune's) is
        left; and when maps are done and no reducer is pending, so only the
        reduce-backup scan is left (or reduces have not started).  Those
        scans pick a victim without looking at the offered node.  False
        while pending work may be node-dependent: stock delay scheduling
        keys its wait per node, and FlexMap's reduce-bias filter draws per
        node.
        """
        if self.job_done:
            return True
        if not self.maps.done():
            return not self.maps_pending()
        return not (self.reduces.started and self.reduces.pending > 0)

    def _backs_up_stragglers(self) -> bool:
        """Whether idle slots go to straggler scans: the engine's speculator
        is enabled.  YARN speculates reduces exactly as it does maps."""
        return self.speculation is not None and self.speculation.enabled

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def requeue_map(self, assignment: MapAssignment) -> None:
        """Return a lost attempt's input to the unprocessed pool.

        Engines override this to put the input back where they take it
        from (locality index, BU binder, mitigation queue); the rest of the
        requeue bookkeeping is :meth:`on_node_failure`'s.  The base
        implementation refuses rather than silently lose data.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot requeue maps")

    def on_node_failure(self, node) -> None:
        """Crash handling: kill the node's attempts and re-enqueue the work.

        Map input lost with the node is re-enqueued (unless another copy of
        the task is still running elsewhere — speculation's silver lining);
        reducers return to pending.  Intermediate map output is modelled as
        already fetched/replicated, so completed maps are not re-executed —
        a simplification noted in DESIGN.md.

        Safe against the two untestable-in-production edges: a crash of an
        already-dead node finds no running attempts (the first crash killed
        and removed them, so nothing is re-enqueued twice), and a crash
        arriving after job completion only marks the node dead — the AM has
        released every container and must not resurrect bookkeeping.
        """
        node.fail()
        if self.job_done:
            return
        self.recorder.node_failed(node)
        for attempt in [a for a in self.maps.running if a.node is node]:
            assignment = self.maps.kill(attempt)
            if any(a.task_id == attempt.task_id for a in self.maps.running):
                continue  # a copy elsewhere still holds the input
            self.requeue_map(assignment)
            # The task may be re-run from scratch; allow fresh speculation.
            self.maps.speculated_ids.discard(attempt.task_id)
            self.recorder.map_requeued(assignment)
        for attempt in [a for a in self.reduces.running if a.node is node]:
            self.reduces.kill(attempt)
            self.reduces.speculated_ids.discard(attempt.task_id)
            still_running = any(
                a.task_id == attempt.task_id for a in self.reduces.running
            )
            if attempt.task_id not in self.reduces.done_ids and not still_running:
                self.reduces.pending += 1
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
        # Last map wave: no regular work remains, but idle slots must still
        # be offered so the straggler scan can back up (or split) a map.
        # Engines with placement filters (FlexMap's reduce bias) may decline
        # every free container in a round; retry on the next heartbeat so
        # pending reducers cannot stall.  Running reduces also need periodic
        # offers so idle containers can launch backups.
        index, reduces = self.index, self.reduces
        last_wave = index is not None and index.unprocessed == 0 and not self.maps.done()
        if (last_wave and self._backs_up_stragglers()) or (
            reduces.started and (reduces.pending > 0 or reduces.running)
        ):
            self.rm.request_offers()
