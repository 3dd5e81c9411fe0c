"""NameNode: file-to-block bookkeeping and replica placement.

``create_file`` splits an input of ``size_mb`` into fixed-size blocks (the
last block may be short), assigns replicas via the placement policy, and
optionally applies a record-skew model that perturbs per-block processing
cost.
"""

from __future__ import annotations

import numpy as np

from repro.hdfs.block import Block
from repro.hdfs.placement import PlacementPolicy, RoundRobinPlacement


class NameNode:
    """Tracks blocks of every stored file."""

    def __init__(
        self,
        node_ids: list[str],
        replication: int = 3,
        policy: PlacementPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not node_ids:
            raise ValueError("NameNode needs datanodes")
        if replication < 1:
            raise ValueError(f"replication must be >= 1: {replication}")
        self.node_ids = list(node_ids)
        self.replication = replication
        self.policy = policy or RoundRobinPlacement()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.files: dict[str, list[Block]] = {}
        self._next_block_id = 0

    def create_file(
        self,
        name: str,
        size_mb: float,
        block_size_mb: float,
        cost_factors: np.ndarray | None = None,
    ) -> list[Block]:
        """Store a file, returning its blocks in offset order.

        ``cost_factors`` (one per block, or broadcastable) injects record
        skew; by default every block costs its nominal size.
        """
        if name in self.files:
            raise ValueError(f"file exists: {name}")
        if size_mb <= 0 or block_size_mb <= 0:
            raise ValueError("file and block sizes must be positive")
        num_blocks = int(np.ceil(size_mb / block_size_mb))
        placements = self.policy.place(
            num_blocks, self.node_ids, self.replication, self.rng
        )
        if cost_factors is None:
            factors = [1.0] * num_blocks
        else:
            factors = np.broadcast_to(
                np.asarray(cost_factors, dtype=float), (num_blocks,)
            ).tolist()
        blocks: list[Block] = []
        remaining = size_mb
        for i in range(num_blocks):
            size = min(block_size_mb, remaining)
            remaining -= size
            blocks.append(
                Block(
                    block_id=self._next_block_id,
                    file=name,
                    size_mb=size,
                    replicas=placements[i],
                    cost_factor=factors[i],
                )
            )
            self._next_block_id += 1
        self.files[name] = blocks
        return blocks

    def blocks_of(self, name: str) -> list[Block]:
        """Blocks of a stored file, in offset order."""
        return self.files[name]

    def blocks_on_node(self, name: str, node_id: str) -> list[Block]:
        """Blocks of ``name`` with a replica on ``node_id``."""
        return [b for b in self.files[name] if b.is_local_to(node_id)]
