"""Per-task execution overhead: container allocation + JVM startup.

The paper's productivity metric (eq. 1) hinges on this fixed cost: at 8 MB
wordcount maps measured productivity as low as 0.28, i.e. startup dominated
~72% of the attempt.  The defaults below are calibrated so the simulator
lands in the same regime (see Fig. 3b/3c benches): a speed-1.0 node computes
wordcount at ~1.6 MB/s of input, so an 8 MB map spends ~5 s computing and
~12 s in overhead -> productivity ~0.3, while a 64 MB map reaches ~0.77 —
matching the paper's 0.28-at-8MB / ~0.8-at-64MB productivity curve.

Overhead is wall-clock, independent of split size, with a small
deterministic-stream jitter; the JVM component scales mildly with node
speed (slow machines also start JVMs slower).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OverheadModel:
    """Fixed per-attempt startup costs, in seconds."""

    container_alloc_s: float = 4.0
    jvm_startup_s: float = 8.0
    jitter_frac: float = 0.1  # uniform +/- fraction applied to the total
    jvm_speed_scaling: float = 0.5  # 0 = constant, 1 = fully divided by speed

    def __post_init__(self) -> None:
        if self.container_alloc_s < 0 or self.jvm_startup_s < 0:
            raise ValueError("overhead components must be non-negative")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError(f"jitter_frac out of range: {self.jitter_frac}")
        if not 0.0 <= self.jvm_speed_scaling <= 1.0:
            raise ValueError(f"jvm_speed_scaling out of range: {self.jvm_speed_scaling}")

    def sample(self, node_speed: float, rng: np.random.Generator) -> float:
        """Startup seconds for one attempt on a node of the given speed."""
        if node_speed <= 0:
            raise ValueError(f"non-positive node speed: {node_speed}")
        # Interpolate the JVM cost between constant and speed-inverse.
        jvm = self.jvm_startup_s * (
            (1.0 - self.jvm_speed_scaling) + self.jvm_speed_scaling / node_speed
        )
        base = self.container_alloc_s + jvm
        if self.jitter_frac == 0.0:
            return base
        return base * rng.uniform(1.0 - self.jitter_frac, 1.0 + self.jitter_frac)
