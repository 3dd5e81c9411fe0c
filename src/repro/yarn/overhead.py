"""Per-task execution overhead: container allocation + JVM startup.

The paper's productivity metric (eq. 1) hinges on this fixed cost: at 8 MB
wordcount maps measured productivity as low as 0.28, i.e. startup dominated
~72% of the attempt.  The constants below are calibrated so the simulator
lands in the same regime (see Fig. 3b/3c benches): a speed-1.0 node computes
wordcount at ~1.6 MB/s of input, so an 8 MB map spends ~5 s computing and
~12 s in overhead -> productivity ~0.3, while a 64 MB map reaches ~0.77 —
matching the paper's 0.28-at-8MB / ~0.8-at-64MB productivity curve.

Overhead is wall-clock, independent of split size, with a small
deterministic-stream jitter; the JVM component scales mildly with node
speed (slow machines also start JVMs slower).
"""

from __future__ import annotations

import numpy as np

#: Container allocation, in seconds.
CONTAINER_ALLOC_S = 4.0
#: JVM startup on a speed-1.0 node, in seconds.
JVM_STARTUP_S = 8.0
#: Uniform +/- fraction applied to the total.
JITTER_FRAC = 0.1
#: How the JVM cost follows node speed: 0 = constant, 1 = divided by speed.
JVM_SPEED_SCALING = 0.5


def sample(node_speed: float, rng: np.random.Generator) -> float:
    """Startup seconds for one attempt on a node of the given speed."""
    if node_speed <= 0:
        raise ValueError(f"non-positive node speed: {node_speed}")
    # Interpolate the JVM cost between constant and speed-inverse.
    jvm = JVM_STARTUP_S * (
        (1.0 - JVM_SPEED_SCALING) + JVM_SPEED_SCALING / node_speed
    )
    base = CONTAINER_ALLOC_S + jvm
    return base * rng.uniform(1.0 - JITTER_FRAC, 1.0 + JITTER_FRAC)
