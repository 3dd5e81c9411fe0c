"""Node-failure injection and recovery.

MapReduce's raison d'être is transparent fault tolerance (the paper's
introduction; also its [11] on compute-node failures), so the substrate
supports killing worker nodes mid-job: every running attempt on the node is
lost, its input is re-enqueued (map work returns to the unprocessed pool,
reducers back to pending), and the node stops receiving containers.  HDFS
replication keeps the data reachable — blocks whose local replicas died are
simply read remotely.

Failures compose with every engine and with multi-job runs: a crash marks
the node dead and calls ``on_node_failure`` on every AM registered with the
ResourceManager at that moment; each engine re-enqueues its own
bookkeeping.  Two edge cases are pinned down by ``tests/test_failures.py``:

* a node may fail *twice* (duplicate schedule entries, or one schedule per
  job in a service run) — the second crash finds no running attempts and
  must not re-enqueue anything;
* a node may fail *after* the job completed — the finished AM has
  unregistered, so the crash only marks the node dead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.topology import Cluster
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.yarn.resource_manager import ResourceManager


@dataclass(frozen=True)
class NodeFailure:
    """One scheduled crash."""

    time_s: float
    node_id: str

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError(f"negative failure time: {self.time_s}")


class FailureSchedule:
    """Deterministic list of node crashes to inject into a run.

    Duplicate ``(time, node)`` entries are kept — they exercise the
    double-failure path the AMs must tolerate.
    """

    def __init__(self, failures: list[NodeFailure]) -> None:
        self.failures = sorted(failures, key=lambda f: (f.time_s, f.node_id))

    @classmethod
    def single(cls, time_s: float, node_id: str) -> "FailureSchedule":
        return cls([NodeFailure(time_s, node_id)])

    def install(
        self, sim: Simulator, cluster: Cluster, rm: "ResourceManager"
    ) -> None:
        """Arm the crash events against every AM registered with ``rm``.

        Each crash marks the node dead and notifies every AM registered at
        crash time (finished AMs have unregistered; each AM only touches its
        own attempts, so the fan-out cannot double re-enqueue work).  AMs
        submitted after the crash never see the node: the RM skips dead
        nodes in its offer rounds.
        """
        ids = {n.node_id for n in cluster.nodes}
        for failure in self.failures:
            if failure.node_id not in ids:
                raise KeyError(f"unknown node: {failure.node_id}")

        def fire(failure: NodeFailure) -> None:
            node = cluster.node(failure.node_id)
            node.fail()
            for record in rm.apps:
                record.am.on_node_failure(node)

        for failure in self.failures:
            sim.schedule_at(failure.time_s, lambda f=failure: fire(f))
