"""Runtime invariant checker for the discrete-event simulation stack.

The checker arms conservation laws on a live run by *wrapping* instance
methods through the official hook points
(:meth:`repro.sim.engine.Simulator.install_step_interceptor`,
:meth:`repro.yarn.resource_manager.ResourceManager.install_audit`, the
heartbeat subscriber list) plus white-box wraps of the ApplicationMaster's
job lifecycle methods and its map driver's attempt lifecycle methods.  A run without a checker executes the exact unhooked
code, so disabled checks cost nothing — the same contract as
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
    Block units are taken from the locality index at most once while in
    flight, completed at most once, and returned only during failure
    re-enqueue.  (Speculative copies share their original's claim; the
    losing copy is killed, so completion stays unique.)
``byte-conservation``
    At job end the successful map attempts processed exactly the job's
    input bytes — no data lost to failures, none processed twice.
``terminal-state``
    Job-end postconditions: no running or pending work, no orphan BUs,
    every reducer completed, heartbeats stopped.
``slot-leak``
    Run-end postconditions: every occupied container was released and
    every node's ``busy_slots`` drained back to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.engines.base import ApplicationMaster
    from repro.sim.engine import Simulator
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


class _AMState:
    """Per-application ledger held by the checker."""

    __slots__ = (
        "am",
        "last_round",
        "last_round_time",
        "blocks",
        "in_requeue",
        "maps_launched",
        "terminal_checked",
    )

    def __init__(self, am: "ApplicationMaster") -> None:
        self.am = am
        self.last_round = 0
        self.last_round_time = -math.inf
        # block_id -> "inflight" | "done"; absent = assignable.
        self.blocks: dict[int, str] = {}
        self.in_requeue = False
        self.maps_launched = 0
        self.terminal_checked = False


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
        self._uninstallers: list = []
        self._sim: "Simulator | None" = None
        self._cluster: "Cluster | None" = None
        self._last_now = -math.inf
        self._am_states: dict[int, _AMState] = {}
        # container_id -> "occupied" | "released"
        self._containers: dict[int, str] = {}
        self._container_nodes: dict[int, str] = {}
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

    def _count(self, rule: str, n: int = 1) -> None:
        self.checks[rule] = self.checks.get(rule, 0) + n

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

        AMs are attached automatically as they register with the RM; every
        simulated event is then checked for clock monotonicity and slot
        bounds, and every occupy/release transition is cross-checked
        against the checker's own container ledger.
        """
        self._sim = sim
        self._cluster = cluster
        self._last_now = sim.now
        self._uninstallers.append(sim.install_step_interceptor(self._after_event))
        if rm is not None:
            self._uninstallers.append(
                rm.install_audit(
                    on_register=self.attach_am,
                    on_occupy=self._on_occupy,
                    on_release=self._on_release,
                )
            )
        return self

    def detach(self) -> None:
        """Remove every installed hook (the run continues unchecked)."""
        for uninstall in reversed(self._uninstallers):
            uninstall()
        self._uninstallers.clear()

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
    def _on_occupy(self, container) -> None:
        self._count("container-lifecycle")
        cid = container.container_id
        node = container.node
        if self._containers.get(cid) == "occupied":
            self._violate(
                "container-lifecycle",
                f"container #{cid} on {node.node_id} occupied twice",
            )
        if not node.alive:
            self._violate(
                "container-lifecycle",
                f"container #{cid} occupies a slot on dead node {node.node_id}",
            )
        self._containers[cid] = "occupied"
        self._container_nodes[cid] = node.node_id
        self._occupied_by_node[node.node_id] = (
            self._occupied_by_node.get(node.node_id, 0) + 1
        )
        self._check_node_ledger(node, extra=1)

    def _on_release(self, container) -> None:
        self._count("container-lifecycle")
        cid = container.container_id
        node = container.node
        if self._containers.get(cid) != "occupied":
            self._violate(
                "container-lifecycle",
                f"container #{cid} on {node.node_id} released but never occupied",
            )
            return
        self._containers[cid] = "released"
        self._occupied_by_node[node.node_id] -= 1
        self._check_node_ledger(node, extra=-1)

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
        """Arm per-AM ledgers; idempotent, safe before or after submit."""
        if id(am) in self._am_states:
            return
        state = _AMState(am)
        self._am_states[id(am)] = state

        am.heartbeat.subscribe(lambda round_no: self._on_round(state, round_no))

        index = self._find_index(am)
        if index is not None:
            self._wrap_index(state, index)
        else:
            inner_prepare = am.prepare_maps

            def prepare_maps() -> None:
                inner_prepare()
                idx = self._find_index(am)
                if idx is not None:
                    self._wrap_index(state, idx)

            am.prepare_maps = prepare_maps  # type: ignore[method-assign]

        inner_requeue = am.requeue_map

        def requeue_map(assignment) -> None:
            state.in_requeue = True
            try:
                inner_requeue(assignment)
            finally:
                state.in_requeue = False

        am.requeue_map = requeue_map  # type: ignore[method-assign]

        maps = am.maps
        inner_launch = maps.launch

        def launch(container, assignment) -> None:
            state.maps_launched += 1
            inner_launch(container, assignment)

        maps.launch = launch  # type: ignore[method-assign]

        inner_finished = maps.finished

        def finished(attempt, container) -> None:
            assignment = maps.running.get(attempt)
            if assignment is not None:
                self._mark_done(state, assignment)
            inner_finished(attempt, container)

        maps.finished = finished  # type: ignore[method-assign]

        inner_stopped = maps.finalize_stopped

        def finalize_stopped(attempt, container) -> None:
            # Partial commit (SkewTune): the split's BUs count as consumed;
            # the remainder re-enters as synthetic mitigator chunks.
            assignment = maps.running.get(attempt)
            if assignment is not None:
                self._mark_done(state, assignment, completed_twice_ok=True)
            inner_stopped(attempt, container)

        maps.finalize_stopped = finalize_stopped  # type: ignore[method-assign]

        inner_finish = am._finish_job

        def _finish_job() -> None:
            was_done = am.job_done
            inner_finish()
            if not was_done and not state.terminal_checked:
                state.terminal_checked = True
                self._check_terminal(state)

        am._finish_job = _finish_job  # type: ignore[method-assign]

    @staticmethod
    def _find_index(am: "ApplicationMaster"):
        binder = getattr(am, "binder", None)
        if binder is not None:
            return binder.index
        return getattr(am, "index", None)

    def _wrap_index(self, state: _AMState, index) -> None:
        inner_take = index.take
        inner_put_back = index.put_back

        def take(block_id: int):
            self._count("bu-conservation")
            held = state.blocks.get(block_id)
            if held == "inflight":
                self._violate(
                    "bu-conservation",
                    f"BU {block_id} assigned twice: taken while an attempt "
                    "still holds it",
                )
            elif held == "done":
                self._violate(
                    "bu-conservation",
                    f"BU {block_id} taken again after its data was processed",
                )
            block = inner_take(block_id)
            state.blocks[block_id] = "inflight"
            return block

        def put_back(block) -> None:
            self._count("bu-conservation")
            if not state.in_requeue:
                self._violate(
                    "bu-conservation",
                    f"BU {block.block_id} returned to the pool outside a "
                    "failure re-enqueue",
                )
            if state.blocks.get(block.block_id) != "inflight":
                self._violate(
                    "bu-conservation",
                    f"BU {block.block_id} returned but no attempt held it",
                )
            inner_put_back(block)
            state.blocks.pop(block.block_id, None)

        index.take = take
        index.put_back = put_back

    def _mark_done(
        self, state: _AMState, assignment, completed_twice_ok: bool = False
    ) -> None:
        for block in assignment.split.blocks:
            self._count("bu-conservation")
            if (
                state.blocks.get(block.block_id) == "done"
                and not completed_twice_ok
            ):
                self._violate(
                    "bu-conservation",
                    f"BU {block.block_id} completed twice "
                    f"(task {assignment.task_id})",
                )
            state.blocks[block.block_id] = "done"

    # ------------------------------------------------------------------
    # heartbeats
    # ------------------------------------------------------------------
    def _on_round(self, state: _AMState, round_no: int) -> None:
        self._count("heartbeat-order")
        assert self._sim is not None
        now = self._sim.now
        if round_no != state.last_round + 1:
            self._violate(
                "heartbeat-order",
                f"{state.am.job.name}: heartbeat round jumped "
                f"{state.last_round} -> {round_no} at t={now:.3f}",
            )
        if now < state.last_round_time:
            self._violate(
                "heartbeat-order",
                f"{state.am.job.name}: heartbeat at t={now:.3f} before "
                f"previous round's t={state.last_round_time:.3f}",
            )
        state.last_round = round_no
        state.last_round_time = now

    # ------------------------------------------------------------------
    # terminal checks
    # ------------------------------------------------------------------
    def _check_terminal(self, state: _AMState) -> None:
        am = state.am
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
        index = self._find_index(am)
        if index is not None and index.unprocessed != 0:
            self._violate(
                "terminal-state",
                f"{job}: finished with {index.unprocessed} unprocessed BU(s)",
            )
        orphans = sorted(
            bid for bid, held in state.blocks.items() if held == "inflight"
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
    def finalize(self, expect_complete: bool = True) -> CheckReport:
        """Run-end postconditions; returns the accumulated report.

        Idempotent.  ``expect_complete=False`` skips the job-completion and
        drained-slot requirements (for deliberately truncated runs).
        """
        if not self._finalized:
            self._finalized = True
            if expect_complete:
                for state in self._am_states.values():
                    self._count("terminal-state")
                    if not state.am.job_done:
                        self._violate(
                            "terminal-state",
                            f"{state.am.job.name}: run ended before the job "
                            "completed",
                        )
                leaked = sorted(
                    (cid, self._container_nodes.get(cid, "?"))
                    for cid, held in self._containers.items()
                    if held == "occupied"
                )
                self._count("slot-leak")
                if leaked:
                    cid, node = leaked[0]
                    self._violate(
                        "slot-leak",
                        f"{len(leaked)} container(s) never released "
                        f"(first: #{cid} on node {node})",
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
            ams_attached=len(self._am_states),
        )
