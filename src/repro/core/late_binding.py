"""Late Task Binding (Section III-C).

At job submission LTB divides the input into 8 MB BUs and creates one map
*template* per BU — container requests carry resource demands but no
locality constraint.  When the RM grants a container, LTB turns a template
into a real elastic map task sized for the host node, assembling the input
split from BUs with local replicas via the NodeToBlock/BlockToNode maps
(:class:`repro.hdfs.locality.LocalityIndex`); if the node holds fewer than
``n`` unprocessed BUs, remote BUs are drawn from the node with the most
unprocessed data.  The index's unprocessed BUs are the unused templates: a
template is used when its BU is bound, and none is left over once every BU
is taken.
"""

from __future__ import annotations

from repro.hdfs.block import Block
from repro.hdfs.locality import LocalityIndex
from repro.mapreduce.split import InputSplit


class LateTaskBinder:
    """Locality-preserving split construction over the unprocessed BUs."""

    def __init__(self, blocks: list[Block]) -> None:
        self.index = LocalityIndex(blocks)

    # ------------------------------------------------------------------
    @property
    def unprocessed_bus(self) -> int:
        return self.index.unprocessed

    def bind(self, node_id: str, n_bus: int) -> InputSplit | None:
        """Create a real elastic task's split for a container on ``node_id``.

        Claims up to ``n_bus`` BUs, local replicas first.  Returns None when
        no BUs remain.
        """
        if self.index.unprocessed == 0:
            return None
        local, remote = self.index.take_for_node(node_id, n_bus)
        return InputSplit(local_blocks=local, remote_blocks=remote)

    def put_back(self, split: InputSplit) -> None:
        """Return a split's BUs (task killed before processing them)."""
        for block in split.blocks:
            self.index.put_back(block)
