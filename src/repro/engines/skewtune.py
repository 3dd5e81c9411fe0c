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

SkewTune replaces LATE for maps (the AM is built with ``speculate=False``)
but counts as backing up stragglers, so the base AM's heartbeat requests
offers in the last map wave and reduce stragglers get LATE-style backups.
The straggler scan ignores the offered node, as LATE's does, so once it is
all the AM has left, the ResourceManager stops offering it slots for the
rest of a round after its first decline.
"""

from __future__ import annotations

from repro.engines.base import MapAssignment
from repro.engines.registry import register_engine
from repro.engines.stock import StockHadoopAM
from repro.hdfs.block import Block
from repro.mapreduce.attempt import TaskAttempt
from repro.mapreduce.split import InputSplit
from repro.yarn.container import Container

#: Mitigator tasks running or queued at once.
MAX_OUTSTANDING_MITIGATIONS = 1
#: Fixed cost to plan and scan a straggler's remainder, charged per chunk.
REPARTITION_SCAN_S = 5.0
#: Only mitigate when the straggler's estimated remaining time exceeds
#: twice the repartitioning overhead (SkewTune's w heuristic).
MIN_REMAINING_S = 30.0
#: Brand-new attempts are not judged.
MIN_AGE_S = 30.0


@register_engine("skewtune-64", block_size_mb=64.0)
class SkewTuneAM(StockHadoopAM):
    """Stock Hadoop + SkewTune's scan-free straggler repartitioning."""

    engine_name = "skewtune"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, speculate=False, **kwargs)
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
        if self._at_mitigation_cap():
            return
        candidates = [
            a
            for a in self.maps.running
            if a.task_id not in self.mitigated_tasks
            and not a.record.task_id.startswith("st")
            and a.elapsed() >= MIN_AGE_S
        ]
        if not candidates:
            return
        left, victim = max(
            ((a.est_time_left(), a) for a in candidates),
            key=lambda c: (c[0], c[1].task_id),
        )
        if left < MIN_REMAINING_S:
            return
        self._repartition(victim, container)

    def _at_mitigation_cap(self) -> bool:
        """Whether the mitigator tasks queued or running reach the cap; the
        count stops there."""
        outstanding = len(self.mitigation_queue)
        if outstanding >= MAX_OUTSTANDING_MITIGATIONS:
            return True
        for a in self.maps.running:
            if a.task_id.startswith("st"):
                outstanding += 1
                if outstanding >= MAX_OUTSTANDING_MITIGATIONS:
                    return True
        return False

    def _repartition(self, victim: TaskAttempt, container: Container) -> None:
        """Stop the straggler and split its remainder into equal chunks."""
        remaining_mb = victim.size_mb - victim.processed_mb()
        if remaining_mb <= 0:
            return
        source_node = victim.node.node_id
        split = self.maps.running[victim].split
        avg_cost = split.work_mb / split.size_mb if split.size_mb > 0 else 1.0
        victim.stop_early()
        self.maps.finalize_stopped(victim)
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
                    extra_transfer_s=REPARTITION_SCAN_S,
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
        else:
            super().requeue_map(assignment)

    def _backs_up_stragglers(self) -> bool:
        """Idle last-wave slots trigger the mitigation scan, and SkewTune
        mitigates reduce-side stragglers too; we approximate its
        repartition-the-remainder scheme with a LATE-style backup copy (a
        conservative stand-in: SkewTune would commit partial output)."""
        return True

    def on_tick(self, round_no: int) -> None:
        """No delay-scheduling retry on the heartbeat (unlike stock): offers
        come from releases and the base AM's last-wave and reduce rules."""
