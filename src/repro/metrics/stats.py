"""Distributional statistics: the one percentile rule, the one sample
summary, and map-runtime shapes (Figs. 1 and 3a)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Histogram bins of :func:`normalized_runtime_pdf` (Fig. 3a).
PDF_BINS = 20


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 to 100) of a non-empty sample of floats.

    numpy's default linear rule in plain floats, by the float operations of
    ``numpy.percentile(values, q)``: the virtual index ``(n - 1) * (q / 100)``
    is interpolated between its neighbours in sorted order with numpy's
    ``_lerp``, which computes ``b - (b - a) * (1 - t)`` once ``t >= 0.5``.
    A NaN anywhere gives NaN.  Only a zero result's sign can differ from
    numpy's, whose partition orders ``0.0`` and ``-0.0`` arbitrarily.
    """
    ordered = sorted(values)
    if any(map(math.isnan, ordered)):
        return math.nan
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        # numpy points both neighbours at the last element and takes the
        # gap to its index -1 as the weight.
        a = b = ordered[-1]
        t = index + 1
    else:
        lo = int(index)
        a, b = ordered[lo], ordered[lo + 1]
        t = index - lo
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


@dataclass(frozen=True)
class Summary:
    """Summary of one sample: seed sweeps, SLO distributions, histograms.

    ``std`` is the population standard deviation; percentiles are
    :func:`percentile`'s.
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
        floats = arr.tolist()
        return cls(
            n=len(values),
            mean=float(arr.mean()),
            std=float(arr.std()),
            min=float(arr.min()),
            max=float(arr.max()),
            median=percentile(floats, 50),
            p95=percentile(floats, 95),
            p99=percentile(floats, 99),
        )

    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if self.n < 2:
            return float("inf")
        return 1.96 * self.std / np.sqrt(self.n)


def normalized_runtime_pdf(runtimes: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """PDF of runtimes normalized by the maximum (Fig. 3a), in
    :data:`PDF_BINS` bins.

    Returns ``(bin_centers, density)``; density integrates to 1 over [0, 1].
    """
    if not runtimes:
        raise ValueError("no runtimes")
    arr = np.asarray(runtimes, dtype=float)
    peak = arr.max()
    if peak <= 0:
        raise ValueError("runtimes must be positive")
    normalized = arr / peak
    density, edges = np.histogram(normalized, bins=PDF_BINS, range=(0.0, 1.0), density=True)
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
