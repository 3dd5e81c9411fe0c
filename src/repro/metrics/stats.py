"""Distributional statistics: the one sample summary, and map-runtime
shapes (Figs. 1 and 3a)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Summary of one sample: seed sweeps, SLO distributions, histograms.

    ``std`` is the population standard deviation; percentiles use numpy's
    linear-interpolation rule.
    """

    n: int
    mean: float
    std: float
    min: float
    max: float
    median: float
    p95: float
    p99: float

    @classmethod
    def of(cls, values: list[float]) -> "Summary":
        """Summarise a non-empty sample."""
        if not values:
            raise ValueError("no values")
        arr = np.asarray(values, dtype=float)
        median, p95, p99 = np.percentile(arr, [50, 95, 99])
        return cls(
            n=len(values),
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            max=float(arr.max()),
            median=float(median),
            p95=float(p95),
            p99=float(p99),
        )

    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if self.n < 2:
            return float("inf")
        return 1.96 * self.std / np.sqrt(self.n)


def normalized_runtime_pdf(
    runtimes: list[float], bins: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """PDF of runtimes normalized by the maximum (Fig. 3a).

    Returns ``(bin_centers, density)``; density integrates to 1 over [0, 1].
    """
    if not runtimes:
        raise ValueError("no runtimes")
    arr = np.asarray(runtimes, dtype=float)
    peak = arr.max()
    if peak <= 0:
        raise ValueError("runtimes must be positive")
    normalized = arr / peak
    density, edges = np.histogram(normalized, bins=bins, range=(0.0, 1.0), density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, density


def straggler_ratio(runtimes: list[float]) -> float:
    """Slowest-over-fastest map runtime — Fig. 1's headline number."""
    if not runtimes:
        raise ValueError("no runtimes")
    fastest = min(runtimes)
    if fastest <= 0:
        raise ValueError("runtimes must be positive")
    return max(runtimes) / fastest


def tail_slowdown_fraction(runtimes: list[float], factor: float = 3.0) -> float:
    """Fraction of tasks slower than ``factor`` x the median (Fig. 1b tail)."""
    if not runtimes:
        raise ValueError("no runtimes")
    arr = np.asarray(runtimes, dtype=float)
    med = float(np.median(arr))
    if med <= 0:
        raise ValueError("runtimes must be positive")
    return float(np.mean(arr > factor * med))
