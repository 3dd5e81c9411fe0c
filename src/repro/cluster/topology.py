"""Cluster topology: a named set of worker nodes plus fabric and models.

Builders for the paper's evaluation clusters live in
:mod:`repro.experiments.clusters`; this module is the plain container they
produce.
"""

from __future__ import annotations

from repro.cluster.interference import InterferenceModel, NoInterference
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


class Cluster:
    """Worker nodes + network + interference model.

    The paper dedicates one machine to the ResourceManager/NameNode; the
    nodes held here are the remaining *worker* nodes.
    """

    def __init__(
        self,
        nodes: list[Node],
        network: NetworkModel | None = None,
        interference: InterferenceModel | None = None,
        name: str = "cluster",
    ) -> None:
        if not nodes:
            raise ValueError("cluster needs at least one worker node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self.name = name
        self.nodes = list(nodes)
        self.network = network or NetworkModel()
        self.interference = interference or NoInterference()
        self._by_id = {n.node_id: n for n in nodes}

    # ------------------------------------------------------------------
    def install(self, sim: Simulator, streams: RandomStreams) -> None:
        """Attach the interference model to a simulation run."""
        self.interference.install(sim, self.nodes, streams)

    def node(self, node_id: str) -> Node:
        """Look up a worker node by id."""
        return self._by_id[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    @property
    def total_slots(self) -> int:
        """Number of concurrent containers — eq. (2)'s available containers."""
        return sum(n.slots for n in self.nodes)

    def slowest_speed(self) -> float:
        """Minimum effective node speed right now."""
        return min(n.effective_speed for n in self.nodes)

    def fastest_speed(self) -> float:
        """Maximum effective node speed right now."""
        return max(n.effective_speed for n in self.nodes)
