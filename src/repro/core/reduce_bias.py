"""Capacity-biased reduce placement (Section III-F).

FlexMap's elastic maps concentrate intermediate data on fast nodes, so
dispatching reducers uniformly would both stall the reduce phase on slow
nodes (one-wave execution) and generate avoidable cross-node shuffle.

The paper's scheme: normalize machine capacities to (0, 1] with the fastest
node at 1, give node *i* a dispatch bias of ``c_i**2``, then rejection-
sample — pick a random node, accept with probability ``c_i**2``, repeat
until a node accepts.  Faster nodes accept proportionally more reducers.
The RM's offer rounds supply the random nodes: FlexMap runs one trial per
offered container (:meth:`ReducePlacer.accepts`) and a declined offer
waits for the next round.
"""

from __future__ import annotations

import numpy as np


class ReducePlacer:
    """Rejection sampler over normalized node capacities."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def bias(self, capacity: float) -> float:
        """Dispatch bias for a node of normalized capacity c: c**2."""
        if not 0.0 < capacity <= 1.0:
            raise ValueError(f"capacity must be in (0,1]: {capacity}")
        return capacity * capacity

    def accepts(self, capacity: float) -> bool:
        """One rejection-sampling trial for a specific candidate node."""
        return self.rng.random() < self.bias(capacity)
