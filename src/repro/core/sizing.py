"""Dynamic map task sizing — Algorithm 1 of the paper.

Every node starts at one block unit (8 MB).  Per node, a *size unit* s_i
grows **vertically** from productivity feedback at each completed wave:

* productivity < FAST_LIMIT (0.8)  ->  s_i *= 2      (fast scaling)
* productivity < LINEAR_LIMIT (0.9) -> s_i += 1 BU   (linear scaling)
* otherwise                         -> s_i frozen

and the dispatched task size m_i scales **horizontally** with the node's
speed relative to the slowest node: ``m_i = s_i * speed_i / speed_slowest``.
Nodes grow independently — a slow node's sluggish vertical progress never
holds back a fast node (Section III-E).
"""

from __future__ import annotations

import math

#: Paper constants (Section III-E).
FAST_LIMIT = 0.8
LINEAR_LIMIT = 0.9
BU_MB = 8.0
#: Task size cap in BUs: a safety valve, far above the paper's observed 64.
MAX_BUS = 512


class NodeSizing:
    """Per-node vertical-scaling state (the s_i variable)."""

    def __init__(self, bu_mb: float) -> None:
        self.bu_mb = bu_mb
        self.size_unit_mb = bu_mb  # s_i, initialized to one BU
        self.frozen = False  # productivity passed LINEAR_LIMIT

    def vertical(self, productivity: float) -> str:
        """Grow s_i from the latest wave's productivity (Alg. 1 lines 7-13).

        Returns the decision taken: ``"fast"`` (doubled), ``"linear"``
        (+1 BU), ``"freeze"`` (productivity crossed LINEAR_LIMIT just now),
        or ``"frozen"`` (already frozen, no-op).
        """
        if not 0.0 <= productivity <= 1.0:
            raise ValueError(f"productivity out of [0,1]: {productivity}")
        if self.frozen:
            return "frozen"
        if productivity < FAST_LIMIT:
            self.size_unit_mb *= 2.0
            decision = "fast"
        elif productivity < LINEAR_LIMIT:
            self.size_unit_mb += self.bu_mb
            decision = "linear"
        else:
            self.frozen = True
            decision = "freeze"
        self.size_unit_mb = min(self.size_unit_mb, MAX_BUS * self.bu_mb)
        return decision


class DynamicSizer:
    """Cluster-wide sizing state: one :class:`NodeSizing` per node.

    ``bu_mb`` is the block-unit size in MB: the paper's 8 MB by default,
    varied only by the BU-size sensitivity bench.
    """

    def __init__(self, bu_mb: float = BU_MB) -> None:
        if not bu_mb > 0:
            raise ValueError(f"non-positive BU size: {bu_mb}")
        self.bu_mb = bu_mb
        self._nodes: dict[str, NodeSizing] = {}

    def node(self, node_id: str) -> NodeSizing:
        """Per-node sizing state, created on first use."""
        state = self._nodes.get(node_id)
        if state is None:
            state = NodeSizing(self.bu_mb)
            self._nodes[node_id] = state
        return state

    def record_wave(self, node_id: str, productivity: float) -> str:
        """Feed one completed wave's productivity into vertical scaling."""
        return self.node(node_id).vertical(productivity)

    def task_size_bus(self, node_id: str, relative_speed: float) -> int:
        """Horizontal scaling (Alg. 1 lines 15-18): m_i in block units.

        Rounds half-up: ``round()`` is banker's rounding in Python, which
        would shrink a task on exact .5 BU boundaries (2.5 BUs -> 2).
        """
        if relative_speed <= 0:
            raise ValueError(f"non-positive relative speed: {relative_speed}")
        size_mb = self.node(node_id).size_unit_mb * relative_speed
        bus = int(math.floor(size_mb / self.bu_mb + 0.5))
        return max(1, min(bus, MAX_BUS))

    def size_unit_mb(self, node_id: str) -> float:
        """Current size unit s_i for the node, in MB."""
        return self.node(node_id).size_unit_mb
