"""Machine catalog for the physical heterogeneous cluster (paper Table I).

The paper reports model names, CPU generations, memory and counts.  Only
*relative* node speed matters to every algorithm under evaluation (FlexMap's
Algorithm 1 normalizes speed to the slowest node), so each model carries a
relative speed factor derived from its CPU generation.  Combined with the
per-task startup overhead, a 2.5x compute-speed spread yields wall-clock
map runtimes spread ~2x — the paper's own Fig. 1a observation.  The 8 GB
OptiPlex desktops (7 of 12 nodes) additionally suffer memory-pressure
episodes (see :meth:`repro.cluster.node.Node.sample_work_noise`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """One hardware model from Table I."""

    model: str
    cpu: str
    memory_gb: int
    disk_tb: int
    count: int  # number of such machines in the 12-node cluster
    speed: float  # relative per-container speed (slowest model = 1.0)
    slots: int  # concurrent YARN containers


#: Table I of the paper, one entry per machine model.  The OptiPlex 990
#: desktops (oldest CPU generation, 7 of 12 nodes) anchor speed 1.0; the
#: Sandy Bridge servers are roughly twice as fast per the Fig. 1a spread.
#: Slot counts follow YARN's memory-based container sizing (~2 GB per
#: container, capped by cores): the 8 GB desktops fit 3 containers while the
#: big servers fit 6-12, so fast machines also offer more parallelism.
MACHINE_CATALOG: tuple[MachineSpec, ...] = (
    MachineSpec("PowerEdge T320", "Intel Sandy Bridge 2.2GHz", 24, 1, 2, 2.2, 8),
    MachineSpec("PowerEdge T430", "Intel Sandy Bridge 2.3GHz", 128, 1, 1, 2.5, 12),
    MachineSpec("PowerEdge T110", "Intel Nehalem 3.2GHz", 16, 1, 2, 1.5, 6),
    MachineSpec("OPTIPLEX 990", "Intel Core 2 3.4GHz", 8, 1, 7, 1.0, 3),
)


def total_machines() -> int:
    """Total machine count of Table I (12)."""
    return sum(m.count for m in MACHINE_CATALOG)
