"""FlexMapAM: the augmented Application Master (Fig. 4).

Workflow, numbered as in the paper:

1. on submission, create one map template per 8 MB BU (LateTaskBinder);
2. request containers carrying resource demands but no locality info;
3. the RM grants containers bound to particular nodes;
4. for a granted container, estimate the host speed (SpeedMonitor), compute
   the task size (DataProvision / Algorithm 1), and let LTB assemble a
   locality-preserving split of that many BUs;
5. dispatch the elastic map task;
6. containers report IPS through 5 s heartbeats.  The SpeedMonitor numbers
   the rounds it ingests itself, so a monitor carried over from an earlier
   AM (iterative warm start) or shared by many (``repro serve``) is used
   as is.

Step 4 runs on every offer, so it reads cached state: the speculative
backup path is taken directly once no BU is left to bind, and the tail
cap's capacity sum is rebuilt, in one pass over the monitor's ``speeds``
view, only when the SpeedMonitor's ``version`` moves.  While a checker is
armed, each rebuild is compared with the same sum over ``get_speed``.

Reducers are dispatched with the capacity-squared bias of Section III-F.
FlexMap is implemented on top of YARN (Section III-G), whose LATE
speculator keeps running underneath: elastic sizing removes most stragglers
proactively, but a task whose node slows down *mid-flight* (a cloud hotspot
arriving after dispatch) can still be rescued by a backup copy.
"""

from __future__ import annotations

import math

from repro.core.data_provision import DataProvision
from repro.core.late_binding import LateTaskBinder
from repro.core.reduce_bias import ReducePlacer
from repro.core.sizing import BU_MB, DynamicSizer
from repro.core.speed_monitor import SpeedMonitor
from repro.engines.base import ApplicationMaster, MapAssignment
from repro.engines.registry import EngineSpec, register_engine
from repro.engines.speculation import SpeculationManager
from repro.mapreduce.attempt import TaskAttempt
from repro.yarn.container import Container


@register_engine("flexmap", block_size_mb=BU_MB)
class FlexMapAM(ApplicationMaster):
    """Elastic map tasks sized to machine capacity."""

    engine_name = "flexmap"

    def __init__(
        self,
        *args,
        bu_mb: float = BU_MB,
        horizontal_scaling: bool = True,
        vertical_scaling: bool = True,
        reduce_bias: bool = True,
        monitor: SpeedMonitor | None = None,
        sizer: DynamicSizer | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.speculation = SpeculationManager(self)
        # Pre-warmed monitor/sizer state can be injected so iterative
        # (Spark-style, §IV-G) workloads skip the sizing ramp after the
        # first iteration.
        self.monitor = monitor or SpeedMonitor(self.sim)
        self.sizer = sizer or DynamicSizer(bu_mb)
        self.dp = DataProvision(self.monitor, self.sizer)
        self.placer = ReducePlacer(self.streams.stream("reduce-bias"))
        # Ablation switches (not in the paper; used by the ablation benches).
        self.horizontal_scaling = horizontal_scaling
        self.vertical_scaling = vertical_scaling
        self.reduce_bias = reduce_bias
        self.binder: LateTaskBinder | None = None
        self._completions: dict[str, int] = {}
        self._wave_productivity: dict[str, list[float]] = {}
        self._wave_adjusted: dict[str, int] = {}
        # (node id, slots) per node, in cluster order; slot counts never
        # change.
        self._node_slots = [(n.node_id, n.slots) for n in self.cluster.nodes]
        # (monitor version, slot-weighted capacity sum)
        self._capacity: tuple[int, float] | None = None
        # (sim time, node, assigned BUs, Algorithm-1 BUs before the tail
        # cap, productivity) — the Fig. 7 timeline.
        self.sizing_log: list[tuple[float, str, int, int, float]] = []

    # ------------------------------------------------------------------
    # map phase
    # ------------------------------------------------------------------
    def prepare_maps(self) -> None:
        blocks = self.namenode.blocks_of(self.job.input_file)
        self.binder = LateTaskBinder(blocks)

    def maps_pending(self) -> bool:
        assert self.binder is not None
        return self.binder.unprocessed_bus > 0

    @property
    def index(self):
        """The binder's unprocessed-BU index (see ``ApplicationMaster.index``)."""
        return self.binder.index if self.binder is not None else None

    def select_map(self, container: Container) -> MapAssignment | None:
        assert self.binder is not None
        if self.binder.unprocessed_bus == 0:
            # No BUs left: the idle container may still back up a straggler.
            return self.speculation.select_speculative(container)
        node_id = container.node_id
        n_bus = self.dp.task_size_bus(node_id) if self.horizontal_scaling else (
            self.sizer.task_size_bus(node_id, 1.0)
        )
        alg1 = n_bus
        n_bus = min(n_bus, self._tail_cap(node_id))
        split = self.binder.bind(node_id, n_bus)
        assert split is not None  # BUs remain, so bind takes at least one
        wave = self._completions.get(node_id, 0) // max(1, container.node.slots)
        assignment = MapAssignment(
            task_id=self.maps.next_task_id(),
            split=split,
            wave=wave,
            alg1_bus=alg1,
        )
        if self.obs is not None:
            self.obs.metrics.histogram("flexmap.task_size_bus").observe(split.num_bus)
            self.obs.trace.emit(
                "task_bind", self.sim.now,
                task=assignment.task_id, node=node_id,
                n_bus=split.num_bus, alg1_bus=alg1,
                s_i_mb=self.sizer.size_unit_mb(node_id),
                rel_speed=round(self.monitor.relative_speed(node_id), 4),
                local_mb=round(split.local_mb, 3),
                remote_mb=round(split.remote_mb, 3),
            )
        return assignment

    def _tail_cap(self, node_id: str) -> int:
        """Cap a task at the node's capacity-proportional share of the
        remaining BUs.

        Without this, the last granted container can swallow every leftover
        BU into one giant task whose runtime alone extends the map phase;
        the AM instead stops growing tasks once the remaining data no longer
        fills the cluster (the "AM stops creating new map tasks" boundary of
        Fig. 4, step 6).  Irrelevant while plenty of BUs remain because the
        share is then far above Algorithm 1's size.

        When the cluster is shared (multi-job RM), the job can only ever
        occupy ~1/J of the slots, so the per-container share of *its*
        remaining data is J times larger: capping against whole-cluster
        capacity would shred the input into J times too many
        overhead-dominated tasks.  ``num_active_apps`` is 1 in single-job
        mode, making this a strict generalization of the original formula.
        """
        assert self.binder is not None
        remaining = self.binder.unprocessed_bus
        monitor = self.monitor
        speeds = monitor.speeds
        if self._capacity is None or self._capacity[0] != monitor.version:
            capacity = sum([(speeds.get(n) or 1.0) * s for n, s in self._node_slots])
            check = self.recorder.check
            if check is not None:
                check.incremental_state(
                    "tail-cap capacity",
                    capacity,
                    sum((monitor.get_speed(n) or 1.0) * s for n, s in self._node_slots),
                )
            self._capacity = (monitor.version, capacity)
        # The app count changes without a monitor sample: divide per call.
        total_capacity = self._capacity[1] / self.rm.num_active_apps
        share = (speeds.get(node_id) or 1.0) / total_capacity if total_capacity > 0 else 1.0
        return max(1, int(math.ceil(remaining * share)))

    def requeue_map(self, assignment: MapAssignment) -> None:
        """Node failure: the split's BUs return to the binder for
        re-provisioning on surviving nodes."""
        assert self.binder is not None
        self.binder.put_back(assignment.split)

    def on_map_complete(self, attempt: TaskAttempt, assignment: MapAssignment) -> None:
        node_id = attempt.node.node_id
        runtime = attempt.record.runtime
        if runtime > 0:
            self.monitor.report_completion(node_id, attempt.size_mb / runtime)
        productivity = attempt.record.productivity
        self.sizing_log.append(
            (
                self.sim.now,
                node_id,
                assignment.split.num_bus,
                max(assignment.alg1_bus, assignment.split.num_bus),
                productivity,
            )
        )
        self._wave_productivity.setdefault(node_id, []).append(productivity)
        self._completions[node_id] = self._completions.get(node_id, 0) + 1
        if not self.vertical_scaling:
            return
        slots = max(1, attempt.node.slots)
        wave = self._completions[node_id] // slots
        if wave > self._wave_adjusted.get(node_id, 0):
            samples = self._wave_productivity.pop(node_id, [])
            if samples:
                mean_prod = min(1.0, max(0.0, sum(samples) / len(samples)))
                s_i_before = self.sizer.size_unit_mb(node_id)
                decision = self.dp.wave_feedback(node_id, mean_prod)
                if self.obs is not None:
                    self.obs.metrics.counter("flexmap.sizing_decisions").inc()
                    self.obs.trace.emit(
                        "sizing", self.sim.now,
                        node=node_id, wave=wave,
                        productivity=round(mean_prod, 4),
                        s_i_before=s_i_before,
                        s_i_after=self.sizer.size_unit_mb(node_id),
                        decision=decision,
                    )
            self._wave_adjusted[node_id] = wave

    # ------------------------------------------------------------------
    # heartbeats -> SpeedMonitor
    # ------------------------------------------------------------------
    def on_tick(self, round_no: int) -> None:
        node_ips: dict[str, list[float]] = {}
        for attempt in self.maps.running:
            node_ips.setdefault(attempt.node.node_id, []).append(attempt.ips())
        self.monitor.report_round(node_ips)

    # ------------------------------------------------------------------
    # reduce phase: capacity-squared bias
    # ------------------------------------------------------------------
    def select_reduce_node_ok(self, container: Container) -> bool:
        if not self.reduce_bias:
            return True
        capacity = self._normalized_capacity(container.node_id)
        return self.placer.accepts(capacity)

    def _normalized_capacity(self, node_id: str) -> float:
        speeds = {
            n: self.monitor.get_speed(n)
            for n in self.monitor.known_nodes()
        }
        speeds = {n: s for n, s in speeds.items() if s}
        if not speeds or node_id not in speeds:
            return 1.0
        fastest = max(speeds.values())
        return max(1e-6, min(1.0, speeds[node_id] / fastest))


def is_flexmap(spec: EngineSpec) -> bool:
    """Whether ``spec`` builds a FlexMap AM (any subclass included): the
    engines that take shared sizing state (``monitor``, ``sizer``) through
    ``spec.build(extra=...)``."""
    return isinstance(spec.factory, type) and issubclass(spec.factory, FlexMapAM)
