"""SkewTune baseline (Kwon et al., SIGMOD'12 — the paper's [16]).

When a slot frees and no regular work remains, SkewTune identifies the
running task with the greatest *time remaining*, stops it (committing its
partial output), and repartitions its unprocessed input evenly across the
idle slots — **assuming all nodes have equal processing capability**, the
assumption the paper exploits: on clusters where half the nodes are slow,
equal repartitioning keeps feeding slow nodes and the benefit collapses to
the 5-10% the paper measured.

Mitigation costs are modelled per the SkewTune design: repartitioning moves
the remainder over the network (scan + transfer) and every mitigator pays a
fresh container/JVM startup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import MapAssignment
from repro.engines.registry import register_engine
from repro.engines.speculation import SpeculationConfig
from repro.engines.stock import StockHadoopAM
from repro.hdfs.block import Block
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.split import InputSplit
from repro.yarn.container import Container


@dataclass(frozen=True)
class SkewTuneConfig:
    """Straggler-mitigation knobs."""

    # Only mitigate when the straggler's estimated remaining time exceeds
    # twice the repartitioning overhead (SkewTune's w heuristic).
    min_remaining_s: float = 30.0
    min_age_s: float = 30.0
    max_outstanding_mitigations: int = 1
    repartition_scan_s: float = 5.0  # fixed cost to plan/scan the remainder


@register_engine("skewtune-64", block_size_mb=64.0)
class SkewTuneAM(StockHadoopAM):
    """Stock Hadoop + SkewTune's scan-free straggler repartitioning."""

    engine_name = "skewtune"

    def __init__(self, *args, skewtune: SkewTuneConfig | None = None, **kwargs):
        # SkewTune replaces speculation as the straggler defence.
        kwargs.setdefault("speculation", SpeculationConfig(enabled=False))
        super().__init__(*args, **kwargs)
        self.st_config = skewtune or SkewTuneConfig()
        self.mitigation_queue: list[MapAssignment] = []
        self.mitigations = 0
        self.mitigated_tasks: set[str] = set()
        self._mitigator_seq = 0

    # ------------------------------------------------------------------
    def maps_pending(self) -> bool:
        return super().maps_pending() or bool(self.mitigation_queue)

    def select_map(self, container: Container) -> MapAssignment | None:
        # Mitigators first: they exist precisely because slots were idle.
        if self.mitigation_queue:
            return self._dequeue_mitigator(container)
        assert self.index is not None
        if self.index.unprocessed > 0:
            return super().select_map(container)
        self._try_mitigate(container)
        if self.mitigation_queue:
            return self._dequeue_mitigator(container)
        return None

    def _dequeue_mitigator(self, container: Container) -> MapAssignment:
        assignment = self.mitigation_queue.pop(0)
        # Locality is decided now: the chunk lives on the straggler's node.
        blocks = assignment.split.blocks
        assignment.split = InputSplit.for_node(blocks, container.node_id)
        return assignment

    # ------------------------------------------------------------------
    def _try_mitigate(self, container: Container) -> None:
        cfg = self.st_config
        if self.outstanding_mitigators() >= cfg.max_outstanding_mitigations:
            return
        candidates = [
            a
            for a in self.maps.running
            if a.task_id not in self.mitigated_tasks
            and not a.record.task_id.startswith("st")
            and a.elapsed() >= cfg.min_age_s
        ]
        if not candidates:
            return
        victim = max(candidates, key=lambda a: (a.est_time_left(), a.task_id))
        if victim.est_time_left() < cfg.min_remaining_s:
            return
        self._repartition(victim, container)

    def outstanding_mitigators(self) -> int:
        """Mitigator tasks running or queued."""
        running = sum(1 for a in self.maps.running if a.task_id.startswith("st"))
        return running + len(self.mitigation_queue)

    def _repartition(self, victim: TaskAttempt, container: Container) -> None:
        """Stop the straggler and split its remainder into equal chunks."""
        remaining_mb = victim.size_mb - victim.processed_mb()
        if remaining_mb <= 0:
            return
        source_node = victim.node.node_id
        victim_container = self.maps.containers.get(victim)
        assignment = self.maps.running.get(victim)
        avg_cost = (
            assignment.split.work_mb / assignment.split.size_mb
            if assignment is not None and assignment.split.size_mb > 0
            else 1.0
        )
        victim.stop_early()
        if victim_container is not None:
            self.maps.finalize_stopped(victim, victim_container)
        self.mitigated_tasks.add(victim.task_id)
        self.mitigations += 1
        if self.obs is not None:
            self.obs.metrics.counter("skewtune.mitigations").inc()
        # SkewTune plans chunks for all currently-idle slots plus the one
        # just freed, each the same size — the homogeneity assumption.
        idle_slots = sum(n.free_slots for n in self.cluster.nodes)
        k = max(1, idle_slots)
        chunk_mb = remaining_mb / k
        for i in range(k):
            self._mitigator_seq += 1
            chunk = Block(
                block_id=-self._mitigator_seq,  # synthetic, outside HDFS
                file=f"{victim.task_id}-remainder",
                size_mb=chunk_mb,
                replicas=(source_node,),
                cost_factor=avg_cost,
            )
            self.mitigation_queue.append(
                MapAssignment(
                    task_id=f"st{self._mitigator_seq:04d}",
                    split=InputSplit(local_blocks=[chunk]),
                    speculative=False,
                    extra_transfer_s=self.st_config.repartition_scan_s,
                )
            )
        if self.obs is not None:
            self.obs.trace.emit(
                "mitigate", self.sim.now,
                task=victim.task_id, node=source_node,
                remaining_mb=round(remaining_mb, 3), chunks=k,
            )
        self.rm.request_offers()

    # ------------------------------------------------------------------
    def requeue_map(self, assignment: MapAssignment) -> None:
        """Node failure: mitigator chunks are synthetic (negative block ids,
        outside HDFS), so they return to the mitigation queue — putting them
        into the locality index would pollute it with blocks whose only
        "replica" is the node that just died (found by ``repro fuzz``)."""
        if assignment.task_id.startswith("st"):
            self.mitigation_queue.append(assignment)
            if self.obs is not None:
                self.obs.metrics.counter("am.maps_requeued").inc()
                self.obs.trace.emit(
                    "map_requeue", self.sim.now,
                    task=assignment.task_id,
                    n_bus=len(assignment.split.blocks),
                )
            self.rm.request_offers()
            return
        super().requeue_map(assignment)

    def _reduce_speculation_enabled(self) -> bool:
        """SkewTune mitigates reduce-side stragglers too; we approximate its
        repartition-the-remainder scheme with a LATE-style backup copy (a
        conservative stand-in: SkewTune would commit partial output)."""
        return True

    def on_tick(self, round_no: int) -> None:
        # Idle slots during the last wave trigger straggler scans.
        assert self.index is not None
        if self.index.unprocessed == 0 and not self.maps.done():
            self.rm.request_offers()
