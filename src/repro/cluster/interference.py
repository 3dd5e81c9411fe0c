"""Interference models for the virtual and multi-tenant clusters.

The paper's heterogeneity comes from three sources we reproduce:

* hardware generations (static base speeds — :mod:`repro.cluster.machines`);
* cloud VM interference on the 20-node virtual cluster, where hotspots move
  during job execution and ~20% of map tasks ran up to 5x slower (Fig. 1b);
* multi-tenant co-runners on the 40-node cluster, where the paper slowed a
  fixed fraction (5/10/20/40%) of nodes with CPU-intensive background jobs.

All models draw from named :class:`~repro.sim.random.RandomStreams` streams
and drive :meth:`Node.set_interference` via simulator events, so running
tasks see speed changes mid-flight.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


#: Cloud hotspots (:class:`CloudInterference`): the long-run fraction of
#: nodes interfered, the mean clean-phase length, and the range a busy
#: phase's slowdown factor is drawn from.  They follow the paper's own
#: characterization of its university cloud: tasks up to 5x slower
#: (Fig. 1b) and "slow nodes may account for nearly 50% of total nodes"
#: (Section IV-B).
BUSY_FRACTION = 0.45
MEAN_CLEAN_S = 1600.0
MIN_FACTOR = 0.12
MAX_FACTOR = 0.5

#: Speed factor of a node slowed by co-running background jobs
#: (:class:`MultiTenantInterference`).
SLOW_FACTOR = 0.33


class InterferenceModel:
    """Base class: no-op interference."""

    def install(self, sim: Simulator, nodes: list[Node], streams: RandomStreams) -> None:
        """Attach the model to the cluster; schedules its own events."""


class NoInterference(InterferenceModel):
    """Static cluster: node speeds never change."""


class CloudInterference(InterferenceModel):
    """Moving hotspots in a shared cloud (paper's virtual cluster).

    Each node independently alternates between a clean phase and an
    interfered phase.  Phase lengths are exponential; the slowdown factor in
    an interfered phase is drawn uniformly from ``[MIN_FACTOR, MAX_FACTOR]``.
    At any instant roughly ``BUSY_FRACTION`` of nodes are interfered and the
    worst suffer 5-8x slowdowns.
    """

    def install(self, sim: Simulator, nodes: list[Node], streams: RandomStreams) -> None:
        rng = streams.stream("cloud-interference")
        for node in nodes:
            # Start some nodes already interfered so short jobs see hotspots.
            if rng.random() < BUSY_FRACTION:
                self._enter_busy(sim, node, rng)
            else:
                self._enter_clean(sim, node, rng)

    def _enter_clean(self, sim: Simulator, node: Node, rng) -> None:
        node.set_interference(1.0)
        dwell = rng.exponential(MEAN_CLEAN_S)
        sim.schedule(dwell, lambda: self._enter_busy(sim, node, rng))

    def _enter_busy(self, sim: Simulator, node: Node, rng) -> None:
        factor = rng.uniform(MIN_FACTOR, MAX_FACTOR)
        node.set_interference(factor)
        # The mean busy phase makes the long-run fraction of time
        # interfered equal BUSY_FRACTION.
        dwell = rng.exponential(MEAN_CLEAN_S * BUSY_FRACTION / (1.0 - BUSY_FRACTION))
        sim.schedule(dwell, lambda: self._enter_clean(sim, node, rng))


class MultiTenantInterference(InterferenceModel):
    """Fixed fraction of nodes slowed by co-running background jobs.

    Reproduces the paper's Section IV-F emulation: ``slow_fraction`` of the
    worker nodes are slowed by ``SLOW_FACTOR`` for the whole experiment.
    Node choice is random but reproducible via the named stream.
    """

    def __init__(self, slow_fraction: float) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction must be in [0,1]: {slow_fraction}")
        self.slow_fraction = slow_fraction
        self.slowed_nodes: list[str] = []

    def install(self, sim: Simulator, nodes: list[Node], streams: RandomStreams) -> None:
        rng = streams.stream("multi-tenant")
        n_slow = int(round(self.slow_fraction * len(nodes)))
        picks = rng.choice(len(nodes), size=n_slow, replace=False) if n_slow else []
        self.slowed_nodes = []
        for idx in picks:
            nodes[int(idx)].set_interference(SLOW_FACTOR)
            self.slowed_nodes.append(nodes[int(idx)].node_id)
