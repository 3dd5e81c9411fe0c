"""Locality index: the NodeToBlock / BlockToNode hash maps of LTB.

Section III-C: Late Task Binding maintains two hash maps in the AM to trace
the locality of *unprocessed* block units.  ``NodeToBlock`` maps a node id
to the BUs stored locally; ``BlockToNode`` maps a BU id to the nodes holding
its replicas.  Taking a BU for a task removes it from every entry, so each
BU is processed exactly once.  The same index also serves stock Hadoop's
locality-preferred split selection.
"""

from __future__ import annotations

from collections import deque

from repro.hdfs.block import Block


class LocalityIndex:
    """Mutable index over unprocessed blocks.

    Every container offer asks for the node's smallest unprocessed BU id,
    and a node is typically offered many times in a row, so the index keeps
    a per-node sorted candidate list (``_min_cache``) that is built once and
    then lazily front-filtered against the live ``node_to_block`` bucket —
    ids taken since the last visit are skipped as they surface.  The cache
    is dropped for a node whenever :meth:`put_back` re-inserts a block there
    (failure re-enqueue only, so invalidation is rare).
    """

    def __init__(self, blocks: list[Block]) -> None:
        self._blocks: dict[int, Block] = {b.block_id: b for b in blocks}
        self.node_to_block: dict[str, set[int]] = {}
        self.block_to_node: dict[int, set[str]] = {}
        for b in blocks:
            self.block_to_node[b.block_id] = set(b.replicas)
            for node in b.replicas:
                self.node_to_block.setdefault(node, set()).add(b.block_id)
        # node id -> ascending candidate BU ids (may contain stale entries;
        # consumers must check membership in the live bucket).
        self._min_cache: dict[str, deque[int]] = {}

    # ------------------------------------------------------------------
    @property
    def unprocessed(self) -> int:
        return len(self._blocks)

    def remaining_blocks(self) -> list[Block]:
        """All unprocessed blocks (unordered list)."""
        return list(self._blocks.values())

    def local_blocks(self, node_id: str) -> list[Block]:
        """Unprocessed blocks with a replica on the node, by id."""
        ids = self.node_to_block.get(node_id, set())
        return [self._blocks[i] for i in sorted(ids)]

    # ------------------------------------------------------------------
    def _candidates(self, node_id: str, bucket: set[int]) -> deque[int]:
        """The node's cached candidate deque, front-filtered to a live id."""
        cache = self._min_cache.get(node_id)
        if cache is None:
            cache = deque(sorted(bucket))
            self._min_cache[node_id] = cache
        # The bucket stays a subset of the cache: the cache is built from
        # the bucket, take only removes ids, and put_back drops the cache.
        while cache[0] not in bucket:
            cache.popleft()
        return cache

    def min_local_block(self, node_id: str) -> int | None:
        """Smallest unprocessed BU id with a replica on ``node_id``.

        Equivalent to ``min(node_to_block[node_id])`` but amortized O(1)
        across consecutive offers to the same node via the candidate cache.
        """
        bucket = self.node_to_block.get(node_id)
        if not bucket:
            return None
        return self._candidates(node_id, bucket)[0]

    def smallest_local_blocks(self, node_id: str, n: int) -> list[int]:
        """The ``n`` smallest unprocessed BU ids local to ``node_id``.

        Equivalent to ``sorted(node_to_block[node_id])[:n]`` without
        re-sorting the bucket on every offer.
        """
        bucket = self.node_to_block.get(node_id)
        if not bucket:
            return []
        out: list[int] = []
        for bid in self._candidates(node_id, bucket):
            if bid in bucket:
                out.append(bid)
                if len(out) == n:
                    break
        return out

    # ------------------------------------------------------------------
    def take(self, block_id: int) -> Block:
        """Claim a block for processing, removing it from both maps."""
        block = self._blocks.pop(block_id, None)
        if block is None:
            raise KeyError(f"block {block_id} already taken or unknown")
        for node in self.block_to_node.pop(block_id):
            bucket = self.node_to_block.get(node)
            if bucket is not None:
                bucket.discard(block_id)
                if not bucket:
                    del self.node_to_block[node]
        return block

    def put_back(self, block: Block) -> None:
        """Return a claimed block (task killed before processing it)."""
        if block.block_id in self._blocks:
            raise KeyError(f"block {block.block_id} not taken")
        self._blocks[block.block_id] = block
        self.block_to_node[block.block_id] = set(block.replicas)
        for node in block.replicas:
            self.node_to_block.setdefault(node, set()).add(block.block_id)
            # The returning id may undercut the cached front; rebuild lazily.
            self._min_cache.pop(node, None)

    # ------------------------------------------------------------------
    def take_for_node(self, node_id: str, n: int) -> tuple[list[Block], list[Block]]:
        """Claim up to ``n`` blocks for a task on ``node_id`` (LTB §III-C).

        Prefers BUs with local replicas; if fewer than ``n`` are available,
        falls back to remote BUs drawn from the node currently holding the
        most unprocessed BUs (the paper's heuristic).  Returns
        ``(local, remote)`` lists whose combined length is ``min(n, left)``.
        """
        if n < 1:
            raise ValueError(f"need at least one block: {n}")
        local: list[Block] = []
        remote: list[Block] = []
        local_ids = self.smallest_local_blocks(node_id, n)
        for bid in local_ids:
            local.append(self.take(bid))
        while len(local) + len(remote) < n and self._blocks:
            donor = self.busiest_node(exclude=node_id)
            if donor is None:
                # Only blocks with no live replica entry remain (should not
                # happen) — take any.
                bid = next(iter(self._blocks))
            else:
                bid = self.min_local_block(donor)
            remote.append(self.take(bid))
        return local, remote

    def busiest_node(self, exclude: str | None = None) -> str | None:
        """Node holding the most unprocessed BUs (deterministic tie-break)."""
        best: str | None = None
        best_count = -1
        for node, bucket in self.node_to_block.items():
            if node == exclude:
                continue
            count = len(bucket)
            if count > best_count or (count == best_count and (best is None or node < best)):
                best = node
                best_count = count
        return best
