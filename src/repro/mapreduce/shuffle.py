"""Intermediate-data accounting for the shuffle phase.

Map attempts deposit their output (``processed_mb * shuffle_ratio``) on the
node that ran them.  A reducer owns an even 1/R partition of the total; the
fraction it can read locally equals the fraction of intermediate data held
by its own node (hash partitions are spread uniformly over keys, so every
node's output contributes proportionally to every partition).

This is the structure FlexMap's reduce optimization exploits: elastic maps
concentrate intermediate data on fast nodes, so biasing reducers toward fast
nodes cuts cross-node shuffle volume (Section III-F).
"""

from __future__ import annotations


class IntermediateStore:
    """Per-node map-output volumes for one job."""

    def __init__(self) -> None:
        self._per_node: dict[str, float] = {}
        self.total_mb = 0.0

    def add(self, node_id: str, mb: float) -> None:
        """Deposit ``mb`` of map output on ``node_id``."""
        if mb < 0:
            raise ValueError(f"negative output volume: {mb}")
        if mb == 0:
            return
        self._per_node[node_id] = self._per_node.get(node_id, 0.0) + mb
        self.total_mb += mb

    def node_fraction(self, node_id: str) -> float:
        """Fraction of all intermediate data stored on ``node_id``."""
        if self.total_mb == 0:
            return 0.0
        return self._per_node.get(node_id, 0.0) / self.total_mb

    def reducer_share_mb(self, num_reducers: int) -> float:
        """Even partition size per reducer."""
        if num_reducers < 1:
            raise ValueError(f"need at least one reducer: {num_reducers}")
        return self.total_mb / num_reducers

    def cross_node_mb(self, node_id: str, share_mb: float) -> float:
        """Shuffle bytes a reducer on ``node_id`` must pull over the network."""
        if share_mb < 0:
            raise ValueError(f"negative share: {share_mb}")
        return share_mb * (1.0 - self.node_fraction(node_id))
