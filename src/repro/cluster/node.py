"""Worker-node model.

A node has a base speed (relative to the slowest machine model), a number of
container slots, and a time-varying interference factor.  The *effective*
speed — ``base_speed * interference_factor`` — is the rate at which each
container on the node consumes task work.  Changing the factor notifies all
registered rate listeners (running tasks) so they can reschedule their
completion events.
"""

from __future__ import annotations

from typing import Callable

#: Work inflation of one "pressure episode" (GC/swap/disk contention) on a
#: memory-constrained node, drawn uniformly from this range.
PRESSURE_RANGE = (1.5, 2.5)


class Node:
    """One worker node in the simulated cluster."""

    def __init__(
        self,
        node_id: str,
        base_speed: float = 1.0,
        slots: int = 4,
        model: str = "generic",
        exec_sigma: float = 0.08,
        pressure_prob: float = 0.0,
    ) -> None:
        if base_speed <= 0:
            raise ValueError(f"non-positive base speed: {base_speed}")
        if slots < 1:
            raise ValueError(f"node needs at least one slot: {slots}")
        if exec_sigma < 0:
            raise ValueError(f"negative exec_sigma: {exec_sigma}")
        if not 0.0 <= pressure_prob <= 1.0:
            raise ValueError(f"pressure_prob out of [0,1]: {pressure_prob}")
        self.node_id = node_id
        self.base_speed = base_speed
        self.slots = slots
        self.model = model
        # Per-attempt execution noise: multiplicative lognormal jitter plus,
        # on memory-constrained machines, occasional "pressure episodes"
        # (GC/swap/disk contention) that inflate one attempt's work by a
        # factor drawn from PRESSURE_RANGE.
        # This stands in for the real-world variance of low-end nodes that a
        # pure scheduling model cannot derive (see DESIGN.md substitutions).
        self.exec_sigma = exec_sigma
        self.pressure_prob = pressure_prob
        self._interference = 1.0
        self._listeners: list[Callable[[float], None]] = []
        self.busy_slots = 0
        self.alive = True

    # ------------------------------------------------------------------
    # speed
    # ------------------------------------------------------------------
    @property
    def effective_speed(self) -> float:
        """Current per-container work rate."""
        return self.base_speed * self._interference

    def set_interference(self, factor: float) -> None:
        """Set the interference multiplier (1.0 = no interference).

        Factors below 1.0 slow the node down (e.g. 0.2 = five times slower,
        the worst case the paper observed on its virtual cluster).
        """
        if factor <= 0:
            raise ValueError(f"non-positive interference factor: {factor}")
        if factor == self._interference:
            return
        self._interference = factor
        speed = self.effective_speed
        for listener in list(self._listeners):
            listener(speed)

    def add_rate_listener(self, listener: Callable[[float], None]) -> None:
        """Register a callback invoked with the new effective speed."""
        self._listeners.append(listener)

    def remove_rate_listener(self, listener: Callable[[float], None]) -> None:
        """Deregister a rate listener; no-op if absent."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the node: it stops receiving containers.  Idempotent.

        Running attempts are not touched here — the ApplicationMaster kills
        and re-enqueues them (see ``ApplicationMaster.on_node_failure``).
        """
        self.alive = False

    # ------------------------------------------------------------------
    # execution noise
    # ------------------------------------------------------------------
    def sample_work_noise(self, rng) -> float:
        """Multiplicative work factor for one task attempt on this node."""
        factor = float(rng.lognormal(mean=-0.5 * self.exec_sigma**2, sigma=self.exec_sigma)) if self.exec_sigma > 0 else 1.0
        if self.pressure_prob > 0 and rng.random() < self.pressure_prob:
            factor *= float(rng.uniform(*PRESSURE_RANGE))
        return factor

    # ------------------------------------------------------------------
    # slots
    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        return self.slots - self.busy_slots

    def acquire_slot(self) -> None:
        """Occupy one container slot."""
        if self.busy_slots >= self.slots:
            raise RuntimeError(f"{self.node_id}: no free slots")
        self.busy_slots += 1

    def release_slot(self) -> None:
        """Free one container slot."""
        if self.busy_slots <= 0:
            raise RuntimeError(f"{self.node_id}: releasing unheld slot")
        self.busy_slots -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.node_id!r}, speed={self.effective_speed:.2f}, "
            f"slots={self.busy_slots}/{self.slots})"
        )
