"""ResourceManager: grants containers on nodes with free slots.

The RM is deliberately thin — *task*-level scheduling policy lives in the
Application Masters (:mod:`repro.engines`).
The RM walks nodes with free slots and *offers* a container to an AM; the
AM either accepts (launching a task attempt, which occupies the slot until
the AM releases it) or declines (the slot is offered to the next AM, or
stays free until the next offer round).

Since the multi-job generalization the RM can host many concurrently
registered AMs.  *Which* AM is offered each free slot first is decided by a
pluggable **cluster scheduler** (:mod:`repro.multijob.policies`): FIFO by
registration order, fair sharing by weighted slot usage, or capacity queues.
With a single registered AM every policy degenerates to the historical
single-job behaviour, so single-job traces are byte-identical to the
pre-multi-job RM.

Offer rounds are triggered at start, whenever an AM signals new pending
work, and whenever a slot is released.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cluster.topology import Cluster
from repro.sim.engine import Simulator
from repro.yarn.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster
    from repro.multijob.policies import ClusterSchedulerPolicy


class AppRecord:
    """Per-application bookkeeping held by the RM."""

    __slots__ = ("am", "index", "queue", "weight", "used_slots", "granted")

    def __init__(self, am, index: int, queue: str, weight: float) -> None:
        self.am = am
        self.index = index  # registration order — the FIFO key
        self.queue = queue
        self.weight = weight
        self.used_slots = 0  # slots currently held (per-job accounting)
        self.granted = 0  # containers ever granted


class ResourceManager:
    """Container allocator over a cluster, shared by one or many AMs."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rng=None,
        scheduler: "ClusterSchedulerPolicy | None" = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self._apps: dict[int, AppRecord] = {}  # keyed by id(am), insertion-ordered
        self._next_app_index = 0
        self._offer_scheduled = False
        self.containers_granted = 0
        # Offer order is shuffled per round: real node heartbeats arrive in
        # arbitrary order, so no machine class is systematically served
        # first.  Pass a seeded generator for reproducible runs.
        self._rng = rng
        self.scheduler = scheduler

    # ------------------------------------------------------------------
    # application lifecycle
    # ------------------------------------------------------------------
    def register(
        self, am: "ApplicationMaster", queue: str = "default", weight: float = 1.0
    ) -> None:
        """Attach an ApplicationMaster receiving offers.

        ``queue``/``weight`` feed the cluster scheduler (capacity queues,
        fair-share weights); both are ignored by the default FIFO order.
        """
        if weight <= 0:
            raise ValueError(f"non-positive weight: {weight}")
        if id(am) in self._apps:
            return
        self._apps[id(am)] = AppRecord(am, self._next_app_index, queue, weight)
        self._next_app_index += 1

    def unregister(self, am: "ApplicationMaster") -> None:
        """Detach a finished AM; its held slots (if any) stay accounted to
        the containers until released.  Idempotent."""
        self._apps.pop(id(am), None)

    @property
    def am(self) -> "ApplicationMaster | None":
        """The single registered AM (legacy single-job accessor).

        Returns None when no AM is registered; with several AMs it returns
        the earliest-registered one, matching the pre-multi-job field.
        """
        for record in self._apps.values():
            return record.am
        return None

    @property
    def apps(self) -> list[AppRecord]:
        """Registered applications in registration order."""
        return list(self._apps.values())

    def app_record(self, am: "ApplicationMaster") -> AppRecord | None:
        """Bookkeeping record for ``am``, or None if not registered."""
        return self._apps.get(id(am))

    def used_slots(self, am: "ApplicationMaster") -> int:
        """Slots currently held by ``am`` (0 if unknown)."""
        record = self._apps.get(id(am))
        return record.used_slots if record is not None else 0

    @property
    def num_active_apps(self) -> int:
        """Live (not finished) registered applications, at least 1.

        Sizing logic divides cluster capacity by this to estimate the slice
        one job can actually occupy; in single-job mode it is 1, so the
        single-job behaviour is unchanged.
        """
        return max(1, sum(1 for r in self._apps.values() if self._live(r)))

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin offering containers (t=0 of the job)."""
        self.request_offers()

    def request_offers(self) -> None:
        """Schedule an offer round; coalesces concurrent requests."""
        if self._offer_scheduled:
            return
        self._offer_scheduled = True
        self.sim.schedule(0.0, self._offer_round)

    @staticmethod
    def _live(record: AppRecord) -> bool:
        # Plain offer sinks without a job lifecycle (tests) are always live.
        return not getattr(record.am, "job_done", False)

    def _offer_order(self) -> list[AppRecord]:
        """Candidate applications for the next slot, most deserving first."""
        records = [r for r in self._apps.values() if self._live(r)]
        if len(records) > 1 and self.scheduler is not None:
            return self.scheduler.order(records)
        return records

    def _offer_round(self) -> None:
        self._offer_scheduled = False
        if self._next_app_index == 0:  # no AM ever registered
            return
        # Shuffle before the liveness check: a round triggered by the last
        # release of a finished job must consume exactly one shuffle from
        # the offer stream, as it always has, so drivers that persist the
        # stream across jobs (iterative runs) replay identically.
        nodes = list(self.cluster.nodes)
        if self._rng is not None:
            self._rng.shuffle(nodes)
        if not any(self._live(r) for r in self._apps.values()):
            return
        # Keep offering on a node while some AM accepts and slots remain.
        # The policy re-ranks candidates per free slot so slot accounting
        # from one grant influences who is offered the next slot.
        for node in nodes:
            if not node.alive:
                continue
            while node.free_slots > 0:
                accepted = False
                for record in self._offer_order():
                    container = Container(node, am=record.am)
                    if record.am.on_container(container):
                        record.granted += 1
                        self.containers_granted += 1
                        accepted = True
                        break
                if not accepted:
                    break

    # ------------------------------------------------------------------
    # correctness hooks (zero-cost unless installed)
    # ------------------------------------------------------------------
    def install_audit(
        self,
        on_register: "Callable[[ApplicationMaster], None] | None" = None,
        on_occupy: Callable[[Container], None] | None = None,
        on_release: Callable[[Container], None] | None = None,
    ) -> Callable[[], None]:
        """Observe application registration and slot transitions.

        Installed by wrapping the instance methods, so an RM without an
        audit pays nothing (the :mod:`repro.obs` disabled-cost contract).
        ``on_register`` fires for every *new* AM attachment, ``on_occupy``
        before each slot acquisition, and ``on_release`` before each real
        release (idempotent re-releases are not reported).  Returns an
        uninstall callable.  Used by :class:`repro.check.InvariantChecker`.
        """
        inner_register = self.register
        inner_occupy = self.occupy
        inner_release = self.release

        def register(am, queue: str = "default", weight: float = 1.0) -> None:
            fresh = id(am) not in self._apps
            inner_register(am, queue=queue, weight=weight)
            if fresh and on_register is not None:
                on_register(am)

        def occupy(container: Container) -> None:
            if on_occupy is not None:
                on_occupy(container)
            inner_occupy(container)

        def release(container: Container) -> None:
            if on_release is not None and not container.released:
                on_release(container)
            inner_release(container)

        if on_register is not None:
            self.register = register  # type: ignore[method-assign]
        if on_occupy is not None:
            self.occupy = occupy  # type: ignore[method-assign]
        if on_release is not None:
            self.release = release  # type: ignore[method-assign]

        def uninstall() -> None:
            self.register = inner_register  # type: ignore[method-assign]
            self.occupy = inner_occupy  # type: ignore[method-assign]
            self.release = inner_release  # type: ignore[method-assign]

        return uninstall

    # ------------------------------------------------------------------
    def occupy(self, container: Container) -> None:
        """Mark the container's slot busy (AM accepted the offer)."""
        container.node.acquire_slot()
        record = self._apps.get(id(container.am)) if container.am is not None else None
        if record is not None:
            record.used_slots += 1

    def release(self, container: Container) -> None:
        """Return the slot and trigger a new offer round."""
        if container.released:
            return
        container.released = True
        container.node.release_slot()
        record = self._apps.get(id(container.am)) if container.am is not None else None
        if record is not None:
            record.used_slots -= 1
        self.request_offers()
