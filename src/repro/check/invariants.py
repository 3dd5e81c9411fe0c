"""Runtime invariant checker for the discrete-event simulation stack.

The checker reads a live run through four plain hook points, none of
which replaces a method:

* :meth:`repro.sim.engine.Simulator.install_step_interceptor` — called
  after every processed event;
* the ResourceManager's ``audit`` attribute — registrations, slot
  occupy/release transitions and the re-offers of a closed round;
* each AM's :class:`~repro.engines.base.TraceRecorder`, whose ``check``
  attribute holds the AM's ledger (map launches, completions, SkewTune's
  partial commits, failure requeues, job end), plus the AM's heartbeat
  subscriber list;
* a FlexMap AM's :class:`~repro.core.speed_monitor.SpeedMonitor`, whose
  ``check`` attribute holds the checker while it is armed.

Each hook is None (or absent) in a run without a checker, so disabled
checks cost one ``is not None`` test per call — the same contract as
:mod:`repro.obs`.

Invariant catalogue (rule names appear in every diagnostic):

``clock-monotonic``
    The simulation clock never moves backwards across processed events.
``slot-bounds``
    Every node's ``busy_slots`` stays within ``[0, slots]`` after every
    event, and matches the checker's own occupy/release ledger.
``container-lifecycle``
    A container is occupied at most once, released only while occupied,
    and never granted on a dead node.
``heartbeat-order``
    Heartbeat rounds reach each AM strictly in sequence (1, 2, 3, ...)
    at non-decreasing times.
``bu-conservation``
    A map launch claims its split's block units; a BU is claimed at most
    once while in flight, never again once processed, completed at most
    once, and returned to the pool only by a failure requeue of the
    attempt holding it.  (Speculative copies share their original's claim;
    the losing copy is killed, so completion stays unique.)
``byte-conservation``
    At job end the successful map attempts processed exactly the job's
    input bytes — no data lost to failures, none processed twice.
``terminal-state``
    Job-end postconditions: no running or pending work, no orphan BUs,
    every reducer completed, heartbeats stopped.
``slot-leak``
    Run-end postconditions: every occupied container was released and
    every node's ``busy_slots`` drained back to zero.
``incremental-state``
    Reference mode for the offer path's shortcuts: an AM the RM closed for
    an offer round (``declines_every_node``) declines every slot the round
    skipped it on, which the armed RM re-offers; the speculator's
    fresh-copy estimate equals a scan of the whole trace; every cached
    node speed equals the mean of the node's sample window; and each
    rebuild of FlexMap's tail-cap capacity sum equals the same sum over the
    checked ``get_speed`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.engines.base import ApplicationMaster
    from repro.sim.engine import Simulator
    from repro.yarn.container import Container
    from repro.yarn.resource_manager import ResourceManager

#: Relative tolerance for byte-conservation comparisons (float summation).
BYTE_RTOL = 1e-6


class InvariantViolation(AssertionError):
    """A conservation law was broken; ``rule`` names the catalogue entry."""

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.message = message


@dataclass
class CheckReport:
    """What a finished checker verified and what it found."""

    checks: dict[str, int] = field(default_factory=dict)
    violations: list[InvariantViolation] = field(default_factory=list)
    events_checked: int = 0
    ams_attached: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """One-line status with per-rule check counts."""
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        rules = ", ".join(f"{k}={v}" for k, v in sorted(self.checks.items()))
        return (
            f"invariants {status}: {self.events_checked} events, "
            f"{self.ams_attached} AM(s) [{rules}]"
        )


class _AMLedger:
    """Per-application ledger, fed by the AM's ``TraceRecorder``."""

    __slots__ = ("checker", "am", "last_round", "last_round_time", "blocks")

    def __init__(self, checker: "InvariantChecker", am: "ApplicationMaster") -> None:
        self.checker = checker
        self.am = am
        self.last_round = 0
        self.last_round_time = -math.inf
        # block_id -> "inflight" | "done"; absent = assignable.
        self.blocks: dict[int, str] = {}

    # -- incremental state ------------------------------------------------
    def incremental_state(self, what: str, cached, reference) -> None:
        self.checker.incremental_state(f"{self.am.job.name}: {what}", cached, reference)

    # -- TraceRecorder milestones ---------------------------------------
    def map_launched(self, assignment) -> None:
        """Claim the split's BUs; a backup copy shares its original's."""
        if assignment.speculative:
            return
        checker = self.checker
        for block in assignment.split.blocks:
            checker._count("bu-conservation")
            held = self.blocks.get(block.block_id)
            if held == "inflight":
                checker._violate(
                    "bu-conservation",
                    f"BU {block.block_id} assigned twice: taken while an "
                    "attempt still holds it",
                )
            elif held == "done":
                checker._violate(
                    "bu-conservation",
                    f"BU {block.block_id} taken again after its data was "
                    "processed",
                )
            self.blocks[block.block_id] = "inflight"

    def map_completed(self, assignment) -> None:
        self._mark_done(assignment, completed_twice_ok=False)

    def map_stopped(self, assignment) -> None:
        # Partial commit (SkewTune): the split's BUs count as consumed;
        # the remainder re-enters as mitigator chunks with fresh BUs.
        self._mark_done(assignment, completed_twice_ok=True)

    def map_requeued(self, assignment) -> None:
        """A failure requeue returns the killed attempt's BUs to the pool."""
        checker = self.checker
        for block in assignment.split.blocks:
            checker._count("bu-conservation")
            if self.blocks.get(block.block_id) != "inflight":
                checker._violate(
                    "bu-conservation",
                    f"BU {block.block_id} returned but no attempt held it",
                )
            self.blocks.pop(block.block_id, None)

    def job_finished(self) -> None:
        self.checker._check_terminal(self)

    def _mark_done(self, assignment, completed_twice_ok: bool) -> None:
        checker = self.checker
        for block in assignment.split.blocks:
            checker._count("bu-conservation")
            if self.blocks.get(block.block_id) == "done" and not completed_twice_ok:
                checker._violate(
                    "bu-conservation",
                    f"BU {block.block_id} completed twice "
                    f"(task {assignment.task_id})",
                )
            self.blocks[block.block_id] = "done"


class InvariantChecker:
    """Arms conservation checks on a live simulation.

    Usage::

        checker = InvariantChecker()
        run_job(..., check=checker)          # or ClusterService(..., check=)
        report = checker.finalize()          # run-end postconditions

    ``strict=True`` (default) raises :class:`InvariantViolation` at the
    first broken invariant; ``strict=False`` records violations in
    :attr:`violations` and keeps running (used by the fuzzer to collect
    every diagnostic of a failing config).
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: list[InvariantViolation] = []
        self.checks: dict[str, int] = {}
        self.events_checked = 0
        self._unhook_step = None
        self._sim: "Simulator | None" = None
        self._cluster: "Cluster | None" = None
        self._rm: "ResourceManager | None" = None
        self._last_now = -math.inf
        self._ledgers: dict[int, _AMLedger] = {}
        # Container -> occupied?, in first-occupy order: a diagnostic numbers
        # a container by its position here, which depends only on the run.
        self._containers: dict["Container", bool] = {}
        self._occupied_by_node: dict[str, int] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _violate(self, rule: str, message: str) -> None:
        violation = InvariantViolation(rule, message)
        self.violations.append(violation)
        if self.strict:
            raise violation

    def _count(self, rule: str) -> None:
        self.checks[rule] = self.checks.get(rule, 0) + 1

    def incremental_state(self, what: str, cached, reference) -> None:
        """A cached value read on the offer path must equal its from-scratch
        recomputation exactly."""
        self._count("incremental-state")
        if cached != reference:
            self._violate(
                "incremental-state",
                f"{what}: cached {cached!r} != recomputed {reference!r}",
            )

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(
        self,
        sim: "Simulator",
        cluster: "Cluster | None" = None,
        rm: "ResourceManager | None" = None,
    ) -> "InvariantChecker":
        """Attach to a run's engine, cluster and ResourceManager.

        AMs are attached automatically as they register with the RM (as
        its ``audit``); every simulated event is then checked for clock
        monotonicity and slot bounds, and every occupy/release transition
        is cross-checked against the checker's own container ledger.
        """
        self._sim = sim
        self._cluster = cluster
        self._last_now = sim.now
        self._unhook_step = sim.install_step_interceptor(self._after_event)
        if rm is not None:
            self._rm = rm
            rm.audit = self
        return self

    def detach(self) -> None:
        """Remove every installed hook (the run continues unchecked)."""
        if self._unhook_step is not None:
            self._unhook_step()
            self._unhook_step = None
        if self._rm is not None:
            self._rm.audit = None
        for ledger in self._ledgers.values():
            ledger.am.recorder.check = None
            monitor = getattr(ledger.am, "monitor", None)
            if monitor is not None:
                monitor.check = None

    # ------------------------------------------------------------------
    # engine: clock + slot bounds, checked after every event
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        assert self._sim is not None
        self.events_checked += 1
        now = self._sim.now
        if now < self._last_now:
            self._violate(
                "clock-monotonic",
                f"clock moved backwards: {self._last_now:.6f} -> {now:.6f}",
            )
        self._last_now = now
        if self._cluster is not None:
            for node in self._cluster.nodes:
                if not 0 <= node.busy_slots <= node.slots:
                    self._violate(
                        "slot-bounds",
                        f"node {node.node_id} holds {node.busy_slots} busy slots "
                        f"outside [0, {node.slots}] at t={now:.3f}",
                    )

    # ------------------------------------------------------------------
    # ResourceManager: container lifecycle + slot ledger
    # ------------------------------------------------------------------
    def on_occupy(self, container) -> None:
        """The RM is about to occupy ``container``'s slot."""
        self._count("container-lifecycle")
        node = container.node
        if self._containers.get(container):
            self._violate(
                "container-lifecycle",
                f"container {self._number(container)} on {node.node_id} occupied twice",
            )
        if not node.alive:
            self._violate(
                "container-lifecycle",
                f"container {self._number(container)} occupies a slot on dead "
                f"node {node.node_id}",
            )
        self._containers[container] = True
        self._occupied_by_node[node.node_id] = (
            self._occupied_by_node.get(node.node_id, 0) + 1
        )
        self._check_node_ledger(node, extra=1)

    def on_release(self, container) -> None:
        """The RM is about to release ``container`` for the first time."""
        self._count("container-lifecycle")
        node = container.node
        if not self._containers.get(container):
            self._violate(
                "container-lifecycle",
                f"container {self._number(container)} on {node.node_id} released "
                "but never occupied",
            )
            return
        self._containers[container] = False
        self._occupied_by_node[node.node_id] -= 1
        self._check_node_ledger(node, extra=-1)

    def _number(self, container: "Container") -> str:
        """``#n``: the container's position in first-occupy order (taken on
        violations only)."""
        self._containers.setdefault(container, False)
        return f"#{list(self._containers).index(container)}"

    def on_closed_offer(self, container, accepted: bool) -> None:
        """The RM re-offered ``container`` to an AM it had closed for the
        round; ``accepted`` is the AM's answer, which must be a decline."""
        self._count("incremental-state")
        if accepted:
            am = container.am
            self._violate(
                "incremental-state",
                f"{am.job.name}: closed for the round at t={am.sim.now:.3f} "
                f"but accepted on {container.node_id}",
            )

    def _check_node_ledger(self, node, extra: int) -> None:
        """Cross-check busy_slots against the occupy/release ledger.

        Called *before* the RM mutates the slot, so the expected busy count
        is the node's current value plus the pending transition.
        """
        self._count("slot-bounds")
        expected = node.busy_slots + extra
        if self._occupied_by_node.get(node.node_id, 0) != expected:
            self._violate(
                "slot-bounds",
                f"node {node.node_id} slot ledger mismatch: RM accounts "
                f"{expected} busy, checker saw "
                f"{self._occupied_by_node.get(node.node_id, 0)} occupied",
            )

    # ------------------------------------------------------------------
    # ApplicationMaster attachment
    # ------------------------------------------------------------------
    def attach_am(self, am: "ApplicationMaster") -> None:
        """Arm the per-AM ledger; idempotent, safe before or after submit."""
        if id(am) in self._ledgers:
            return
        ledger = _AMLedger(self, am)
        self._ledgers[id(am)] = ledger
        am.recorder.check = ledger
        monitor = getattr(am, "monitor", None)
        if monitor is not None:
            monitor.check = self
        am.heartbeat.subscribe(lambda round_no: self._on_round(ledger, round_no))

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def _on_round(self, ledger: _AMLedger, round_no: int) -> None:
        self._count("heartbeat-order")
        assert self._sim is not None
        now = self._sim.now
        if round_no != ledger.last_round + 1:
            self._violate(
                "heartbeat-order",
                f"{ledger.am.job.name}: heartbeat round jumped "
                f"{ledger.last_round} -> {round_no} at t={now:.3f}",
            )
        if now < ledger.last_round_time:
            self._violate(
                "heartbeat-order",
                f"{ledger.am.job.name}: heartbeat at t={now:.3f} before "
                f"previous round's t={ledger.last_round_time:.3f}",
            )
        ledger.last_round = round_no
        ledger.last_round_time = now

    # ------------------------------------------------------------------
    # terminal checks
    # ------------------------------------------------------------------
    def _check_terminal(self, ledger: _AMLedger) -> None:
        am = ledger.am
        job = am.job.name
        self._count("terminal-state")
        if am.maps.running:
            self._violate(
                "terminal-state",
                f"{job}: finished with {len(am.maps.running)} orphan map "
                "attempt(s) still running",
            )
        if am.reduces.running:
            self._violate(
                "terminal-state",
                f"{job}: finished with {len(am.reduces.running)} orphan "
                "reduce attempt(s) still running",
            )
        if am.reduces.pending != 0:
            self._violate(
                "terminal-state",
                f"{job}: finished with {am.reduces.pending} reducer(s) "
                "still pending",
            )
        index = am.index
        if index is not None and index.unprocessed != 0:
            self._violate(
                "terminal-state",
                f"{job}: finished with {index.unprocessed} unprocessed BU(s)",
            )
        orphans = sorted(
            bid for bid, held in ledger.blocks.items() if held == "inflight"
        )
        if orphans:
            self._violate(
                "terminal-state",
                f"{job}: BUs assigned but never completed or returned: "
                f"{orphans[:8]}",
            )
        if not am.job.map_only:
            done = len(am.reduces.done_ids)
            if done != am.job.num_reducers:
                self._violate(
                    "terminal-state",
                    f"{job}: {done} of {am.job.num_reducers} reducers completed",
                )
        self._count("byte-conservation")
        processed = am.trace.data_processed_mb()
        expected = am.job.input_mb
        if not math.isclose(processed, expected, rel_tol=BYTE_RTOL):
            verb = "lost" if processed < expected else "double-processed"
            self._violate(
                "byte-conservation",
                f"{job}: map attempts processed {processed:.6f} MB of "
                f"{expected:.6f} MB input ({verb} "
                f"{abs(processed - expected):.6f} MB)",
            )

    # ------------------------------------------------------------------
    def finalize(self) -> CheckReport:
        """Run-end postconditions; returns the accumulated report.

        Idempotent.  Every run is expected to have completed its jobs and
        drained every slot.
        """
        if not self._finalized:
            self._finalized = True
            for ledger in self._ledgers.values():
                self._count("terminal-state")
                if not ledger.am.job_done:
                    self._violate(
                        "terminal-state",
                        f"{ledger.am.job.name}: run ended before the job "
                        "completed",
                    )
            leaked = [c for c, held in self._containers.items() if held]
            self._count("slot-leak")
            if leaked:
                self._violate(
                    "slot-leak",
                    f"{len(leaked)} container(s) never released (first: "
                    f"{self._number(leaked[0])} on node {leaked[0].node_id})",
                )
            if self._cluster is not None:
                for node in self._cluster.nodes:
                    self._count("slot-leak")
                    if node.busy_slots != 0:
                        self._violate(
                            "slot-leak",
                            f"node {node.node_id} still holds "
                            f"{node.busy_slots} busy slot(s) at run end",
                        )
            self.detach()
        return CheckReport(
            checks=dict(self.checks),
            violations=list(self.violations),
            events_checked=self.events_checked,
            ams_attached=len(self._ledgers),
        )
