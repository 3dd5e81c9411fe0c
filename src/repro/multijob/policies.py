"""Cluster-level scheduling policies for the multi-AM ResourceManager.

The RM offers each free slot to registered applications in the order a
policy produces; the first AM to accept gets the container.  Policies rank
the RM's :class:`~repro.yarn.resource_manager.AppRecord` bookkeeping — no
policy mutates it — and every tie is broken by registration index so a
fixed seed yields one grant order.

``fifo``
    Strict registration (submission) order.  Early jobs monopolize the
    cluster until they stop accepting.

``fair``
    Weighted fair sharing over *currently held* slots: the application with
    the smallest ``used_slots / weight`` is offered first, so each released
    slot flows to the most underserved job and no AM can starve the rest.

``capacity``
    YARN-style capacity queues.  Applications are grouped by the ``queue``
    they registered under; queues are ranked by aggregate usage over queue
    capacity (the sum of configured queue weights normalizes shares), FIFO
    within a queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.yarn.resource_manager import AppRecord


class ClusterSchedulerPolicy:
    """Ranks live applications for the next container offer."""

    name = "base"

    def order(self, records: "list[AppRecord]") -> "list[AppRecord]":
        """Return ``records`` most-deserving-first.  Must be deterministic."""
        raise NotImplementedError


class FifoPolicy(ClusterSchedulerPolicy):
    """First registered, first offered."""

    name = "fifo"

    def order(self, records: "list[AppRecord]") -> "list[AppRecord]":
        return sorted(records, key=lambda r: r.index)


class FairPolicy(ClusterSchedulerPolicy):
    """Weighted fair share of currently held slots."""

    name = "fair"

    def order(self, records: "list[AppRecord]") -> "list[AppRecord]":
        return sorted(records, key=lambda r: (r.used_slots / r.weight, r.index))


class CapacityPolicy(ClusterSchedulerPolicy):
    """Capacity queues: rank queues by usage over configured capacity.

    ``queues`` maps queue name to a positive capacity weight; queues not
    configured get capacity 1.0.  Within a queue, FIFO.
    """

    name = "capacity"

    def __init__(self, queues: dict[str, float] | None = None) -> None:
        self.queues = dict(queues or {})
        for queue, capacity in self.queues.items():
            if capacity <= 0:
                raise ValueError(f"non-positive capacity for queue {queue!r}")

    def capacity_of(self, queue: str) -> float:
        """Configured capacity weight for ``queue`` (1.0 if unset)."""
        return self.queues.get(queue, 1.0)

    def order(self, records: "list[AppRecord]") -> "list[AppRecord]":
        usage: dict[str, int] = {}
        for record in records:
            usage[record.queue] = usage.get(record.queue, 0) + record.used_slots
        return sorted(
            records,
            key=lambda r: (usage[r.queue] / self.capacity_of(r.queue), r.index),
        )


#: Registry used by the CLI and the service driver.
CLUSTER_POLICIES: dict[str, type[ClusterSchedulerPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    FairPolicy.name: FairPolicy,
    CapacityPolicy.name: CapacityPolicy,
}


def make_policy(
    name: str, queues: dict[str, float] | None = None
) -> ClusterSchedulerPolicy:
    """Instantiate a policy by registry name.

    ``queues`` configures :class:`CapacityPolicy` shares and is ignored by
    the other policies.
    """
    try:
        cls = CLUSTER_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown cluster policy {name!r}; choose from {sorted(CLUSTER_POLICIES)}"
        ) from None
    if cls is CapacityPolicy:
        return CapacityPolicy(queues)
    return cls()
