"""Builders for the paper's evaluation clusters (Section IV-A).

Each builder returns a *fresh* :class:`~repro.cluster.topology.Cluster` —
nodes carry mutable state (slots, interference), so every run constructs its
own.  One machine of each paper cluster runs the ResourceManager/NameNode;
the builders return only the worker nodes.
"""

from __future__ import annotations

from repro.cluster.interference import (
    CloudInterference,
    MultiTenantInterference,
    NoInterference,
)
from repro.cluster.machines import MACHINE_CATALOG
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster


def physical_cluster() -> Cluster:
    """The 12-node heterogeneous physical cluster of Table I.

    One OptiPlex serves as RM/NameNode, leaving 11 workers across four
    hardware generations with a 2x speed spread.
    """
    nodes: list[Node] = []
    idx = 0
    for spec in MACHINE_CATALOG:
        count = spec.count - 1 if spec.model == "OPTIPLEX 990" else spec.count
        for _ in range(count):
            # The 8 GB desktops run containers under memory pressure:
            # occasional GC/swap episodes inflate an attempt's work.
            pressure = 0.2 if spec.memory_gb <= 8 else 0.0
            nodes.append(
                Node(
                    f"n{idx:02d}-{spec.model.split()[-1].lower()}",
                    base_speed=spec.speed,
                    slots=spec.slots,
                    model=spec.model,
                    pressure_prob=pressure,
                )
            )
            idx += 1
    return Cluster(nodes, network=NetworkModel(), name="physical-12")


def virtual_cluster() -> Cluster:
    """The 20-node virtual cluster in the university cloud.

    Homogeneous VM shapes (4 vCPU / 4 GB) but dynamic interference: moving
    hotspots slow ~20% of nodes by up to 5x at any instant (Fig. 1b).
    """
    nodes = [Node(f"vm{idx:02d}", base_speed=1.0, slots=4) for idx in range(19)]
    return Cluster(
        nodes, network=NetworkModel(), interference=CloudInterference(), name="virtual-20"
    )


def multitenant_cluster(slow_fraction: float) -> Cluster:
    """The 40-node multi-tenant cluster of Section IV-F.

    ``slow_fraction`` of the 39 workers are slowed by co-running
    CPU-intensive background jobs for the whole experiment.
    """
    nodes = [Node(f"mt{idx:02d}", base_speed=1.0, slots=4) for idx in range(39)]
    interference = MultiTenantInterference(slow_fraction)
    return Cluster(
        nodes,
        network=NetworkModel(),
        interference=interference,
        name=f"multitenant-40-{int(slow_fraction * 100)}pct",
    )


def homogeneous_cluster() -> Cluster:
    """Six identical nodes for Fig. 3b/3c and the §IV-D overhead study."""
    nodes = [Node(f"h{idx:02d}", base_speed=1.0, slots=4) for idx in range(6)]
    return Cluster(nodes, network=NetworkModel(), name="homogeneous-6")


def heterogeneous6_cluster() -> Cluster:
    """The 6-node heterogeneous cluster of Fig. 3d: half fast, half slow."""
    speeds = [2.0, 1.8, 1.4, 1.0, 1.0, 1.0]
    nodes = [
        Node(f"x{idx:02d}", base_speed=s, slots=4) for idx, s in enumerate(speeds)
    ]
    return Cluster(nodes, network=NetworkModel(), name="heterogeneous-6")


def three_node_example() -> Cluster:
    """Fig. 2's worked example: two slow nodes and one 3x-fast node."""
    nodes = [
        Node("slow-a", base_speed=1.0, slots=1),
        Node("slow-b", base_speed=1.0, slots=1),
        Node("fast", base_speed=3.0, slots=1),
    ]
    return Cluster(nodes, network=NetworkModel(), interference=NoInterference(), name="fig2-3node")
