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

**Round closure.**  Right after an AM declines, the RM asks it
``declines_every_node()``.  True means the decline could not have depended
on the offered node (the job is done, or only a node-blind straggler scan
is left), so the AM is *closed*: it gets no more offers in this round, and
once every live AM is closed the round stops walking nodes.  This is exact:
the sim time is fixed within a round, only an AM's own launch changes its
running set, and a straggler scan reads progress, ``elapsed`` and
``est_time_left``, which are functions of ``sim.now``.  A declining AM with
pending node-dependent work (stock delay scheduling, FlexMap's reduce-bias
filter) stays open.  Closed AMs are filtered out *after* the cluster policy
ranks the live records, so the policy sees the same records as without the
closure.  Every scheduled round still consumes exactly one ``rm-offers``
shuffle.

:class:`repro.check.InvariantChecker` observes registrations and slot
transitions through the plain ``audit`` attribute; an RM without one pays
one ``is not None`` test per call.  While it is set, the RM walks every
node as if nothing were closed and re-offers each skipped (slot, closed
AM) pair, flagged :attr:`~repro.yarn.container.Container.reoffer`; the
checker requires the AM to decline it, so a checked run makes the
decisions of the unclosed loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.topology import Cluster
from repro.sim.engine import Simulator
from repro.yarn.container import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster
    from repro.multijob.policies import ClusterSchedulerPolicy


class AppRecord:
    """Per-application bookkeeping held by the RM."""

    __slots__ = ("am", "index", "queue", "weight", "used_slots")

    def __init__(self, am, index: int, queue: str, weight: float) -> None:
        self.am = am
        self.index = index  # registration order — the FIFO key
        self.queue = queue
        self.weight = weight
        self.used_slots = 0  # slots currently held (per-job accounting)


class ResourceManager:
    """Container allocator over a cluster, shared by one or many AMs."""

    #: A :class:`repro.check.InvariantChecker` observing this RM, or None.
    #: When set, it hears of every new registration (``attach_am``), each
    #: slot acquisition before it happens (``on_occupy``) and each real
    #: release before it happens (``on_release``).
    audit = None

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
        if self.audit is not None:
            self.audit.attach_am(am)

    def unregister(self, am: "ApplicationMaster") -> None:
        """Detach a finished AM; its held slots (if any) stay accounted to
        the containers until released.  Idempotent."""
        self._apps.pop(id(am), None)

    @property
    def apps(self) -> list[AppRecord]:
        """Registered applications in registration order."""
        return list(self._apps.values())

    def used_slots(self, am: "ApplicationMaster") -> int:
        """Slots currently held by ``am`` (0 if unknown)."""
        record = self._apps.get(id(am))
        return record.used_slots if record is not None else 0

    @property
    def num_active_apps(self) -> int:
        """Live (not finished) registered applications, at least 1.

        Sizing logic divides cluster capacity by this to estimate the slice
        one job can actually occupy; in single-job mode it is 1, so the
        single-job behaviour is unchanged.  A finishing AM unregisters right
        after it sets ``job_done``, so every registered application is live;
        while ``audit`` is set the count is compared with a scan for
        ``job_done``.
        """
        live = max(1, len(self._apps))
        if self.audit is not None:
            self.audit.incremental_state(
                "live apps",
                live,
                max(1, sum(1 for r in self._apps.values() if self._live(r))),
            )
        return live

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
        # The reference for ``num_active_apps``.
        return not record.am.job_done

    def _offer_order(self) -> list[AppRecord]:
        """Candidate applications for the next slot, most deserving first.

        Every registered application is a candidate: a finishing AM
        unregisters right after it sets ``job_done``.
        """
        records = list(self._apps.values())
        if len(records) > 1 and self.scheduler is not None:
            return self.scheduler.order(records)
        return records

    def _offer_round(self) -> None:
        self._offer_scheduled = False
        if self._next_app_index == 0:  # no AM ever registered
            return
        # Shuffle before the registration check: a round triggered by the
        # last release of a finished job must consume exactly one shuffle
        # from the offer stream, as it always has, so drivers that persist
        # the stream across jobs (iterative runs) replay identically.
        nodes = list(self.cluster.nodes)
        if self._rng is not None:
            self._rng.shuffle(nodes)
        if not self._apps:
            return
        audit = self.audit
        closed: set[int] = set()  # id(am) of the AMs closed for this round
        # Keep offering on a node while some AM accepts and slots remain.
        # The policy re-ranks candidates per free slot so slot accounting
        # from one grant influences who is offered the next slot.
        for node in nodes:
            if not node.alive or node.busy_slots >= node.slots:
                continue
            while True:
                accepted = False
                order = self._offer_order()
                for record in order:
                    am = record.am
                    reoffer = id(am) in closed
                    if reoffer and audit is None:
                        continue
                    container = Container(node, am=am, reoffer=reoffer)
                    accepted = am.on_container(container)
                    if reoffer:
                        audit.on_closed_offer(container, accepted)
                        if accepted:  # its own launch reopens it
                            closed.discard(id(am))
                    elif not accepted and am.declines_every_node():
                        closed.add(id(am))
                    if accepted:
                        self.containers_granted += 1
                        break
                if not accepted:
                    if audit is None and all(id(r.am) in closed for r in order):
                        return
                    break
                if node.busy_slots >= node.slots:  # the grant filled it
                    break

    # ------------------------------------------------------------------
    def occupy(self, container: Container) -> None:
        """Mark the container's slot busy (AM accepted the offer)."""
        if self.audit is not None:
            self.audit.on_occupy(container)
        container.node.acquire_slot()
        record = self._apps.get(id(container.am))
        if record is not None:
            record.used_slots += 1

    def release(self, container: Container) -> None:
        """Return the slot and trigger a new offer round."""
        if container.released:
            return
        if self.audit is not None:
            self.audit.on_release(container)
        container.released = True
        container.node.release_slot()
        record = self._apps.get(id(container.am))
        if record is not None:
            record.used_slots -= 1
        self.request_offers()
