"""Input splits: the unit of work a map task consumes.

In stock Hadoop a split is exactly one HDFS block.  Under FlexMap's
Multi-Block Execution a split is an *array of block units*; its size is the
aggregate BU size, and progress is computed over that aggregate
(Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.block import Block


@dataclass
class InputSplit:
    """An ordered list of blocks, split into local vs remote for the host.

    A split is never changed once built (binding, backups and SkewTune make
    new ones), so its aggregates are computed once, at construction:
    ``blocks`` (local then remote), ``num_bus``, ``size_mb`` (nominal input
    bytes), ``work_mb`` (skew-adjusted map work in equivalent MB),
    ``local_mb`` and ``remote_mb``.
    """

    local_blocks: list[Block] = field(default_factory=list)
    remote_blocks: list[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.local_blocks and not self.remote_blocks:
            raise ValueError("empty split")
        self.blocks = blocks = self.local_blocks + self.remote_blocks
        self.num_bus = len(blocks)
        self.size_mb = sum([b.size_mb for b in blocks])
        self.work_mb = sum([b.work_mb for b in blocks])
        self.local_mb = sum([b.size_mb for b in self.local_blocks])
        self.remote_mb = sum([b.size_mb for b in self.remote_blocks])

    @classmethod
    def for_node(cls, blocks: list[Block], node_id: str) -> "InputSplit":
        """Classify ``blocks`` into local/remote for a task on ``node_id``."""
        local = [b for b in blocks if b.is_local_to(node_id)]
        remote = [b for b in blocks if not b.is_local_to(node_id)]
        return cls(local_blocks=local, remote_blocks=remote)
