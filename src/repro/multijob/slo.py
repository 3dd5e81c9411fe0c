"""Cluster-level service metrics (SLO report) for multi-job runs.

Everything here is computed from the per-job :class:`JobOutcome` records
and the service's utilization samples — no simulator access — so the
report can also be rebuilt offline from exported results.

Headline metrics:

* **makespan** — first submission to last completion;
* **JCT distribution** — mean / median / p95 / p99 over all jobs;
* **slowdown** — per-job JCT over the same job's isolated-run JCT (the
  contention penalty the service imposed), aggregated per engine so
  elastic and fixed-size engines can be compared under identical load;
* **utilization** — mean and peak busy-slot fraction over the run.

Every distribution is a :class:`repro.metrics.stats.Summary`, the same
summary seed sweeps and metric histograms use: numpy's linear-interpolation
percentiles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.stats import Summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.multijob.service import JobOutcome


@dataclass
class EngineSLO:
    """Per-engine service quality under the shared load."""

    engine: str
    jct: Summary
    slowdown: Summary | None  # None when isolated baselines were skipped


@dataclass
class SLOReport:
    """Cluster-level service report for one multi-job run."""

    cluster_name: str
    policy: str
    n_jobs: int
    makespan: float
    jct: Summary
    slowdown: Summary | None
    per_engine: list[EngineSLO] = field(default_factory=list)
    utilization_mean: float = 0.0
    utilization_peak: float = 0.0
    throughput_jobs_per_hour: float = 0.0

    # ------------------------------------------------------------------
    def engine_slo(self, engine: str) -> EngineSLO | None:
        """Per-engine block by engine name, if present."""
        for slo in self.per_engine:
            if slo.engine == engine:
                return slo
        return None

    def to_dict(self) -> dict:
        """JSON-ready dict of the full report (see :meth:`to_json`)."""
        return {
            "cluster": self.cluster_name,
            "policy": self.policy,
            "n_jobs": self.n_jobs,
            "makespan_s": round(self.makespan, 3),
            "throughput_jobs_per_hour": round(self.throughput_jobs_per_hour, 3),
            "utilization_mean": round(self.utilization_mean, 4),
            "utilization_peak": round(self.utilization_peak, 4),
            "jct": _dist_dict(self.jct),
            "slowdown": _dist_dict(self.slowdown),
            "per_engine": {
                slo.engine: {
                    "jct": _dist_dict(slo.jct),
                    "slowdown": _dist_dict(slo.slowdown),
                }
                for slo in self.per_engine
            },
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (stable key order ⇒ diffable)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable fixed-width report (deterministic)."""
        lines = [
            f"cluster service report — {self.cluster_name}  "
            f"(policy={self.policy}, jobs={self.n_jobs})",
            f"  makespan          {self.makespan:10.1f} s   "
            f"throughput {self.throughput_jobs_per_hour:7.2f} jobs/h",
            f"  utilization       {self.utilization_mean:10.3f}     "
            f"peak {self.utilization_peak:13.3f}",
            _dist_line("JCT (s)", self.jct),
        ]
        if self.slowdown is not None:
            lines.append(_dist_line("slowdown", self.slowdown))
        if self.per_engine:
            lines.append("  per engine:")
            for slo in self.per_engine:
                lines.append(_dist_line(f"  {slo.engine} JCT", slo.jct))
                if slo.slowdown is not None:
                    lines.append(_dist_line(f"  {slo.engine} slowdown", slo.slowdown))
        return "\n".join(lines)


def _dist_dict(dist: Summary | None) -> dict | None:
    """JSON-ready dict with values rounded for stable diffs."""
    if dist is None:
        return None
    return {
        "n": dist.n,
        "mean": round(dist.mean, 4),
        "median": round(dist.median, 4),
        "p95": round(dist.p95, 4),
        "p99": round(dist.p99, 4),
        "max": round(dist.max, 4),
    }


def _dist_line(label: str, dist: Summary) -> str:
    return (
        f"  {label:<22s} n={dist.n:<3d} mean={dist.mean:9.2f} "
        f"median={dist.median:9.2f} p95={dist.p95:9.2f} p99={dist.p99:9.2f}"
    )


def compute_slo(
    outcomes: "list[JobOutcome]",
    utilization: list[tuple[float, float]],
    cluster_name: str = "cluster",
    policy: str = "fifo",
) -> SLOReport:
    """Build the service report from finished jobs + utilization samples."""
    if not outcomes:
        raise ValueError("no finished jobs")
    jcts = [o.jct for o in outcomes]
    slowdowns = [o.slowdown for o in outcomes if o.slowdown is not None]
    first_submit = min(o.submit_time for o in outcomes)
    last_finish = max(o.finish_time for o in outcomes)
    makespan = last_finish - first_submit
    util_values = [frac for _, frac in utilization]

    engines = sorted({o.engine for o in outcomes})
    per_engine: list[EngineSLO] = []
    for engine in engines:
        mine = [o for o in outcomes if o.engine == engine]
        mine_slow = [o.slowdown for o in mine if o.slowdown is not None]
        per_engine.append(
            EngineSLO(
                engine=engine,
                jct=Summary.of([o.jct for o in mine]),
                slowdown=Summary.of(mine_slow) if mine_slow else None,
            )
        )

    return SLOReport(
        cluster_name=cluster_name,
        policy=policy,
        n_jobs=len(outcomes),
        makespan=makespan,
        jct=Summary.of(jcts),
        slowdown=Summary.of(slowdowns) if slowdowns else None,
        per_engine=per_engine,
        utilization_mean=float(np.mean(util_values)) if util_values else 0.0,
        utilization_peak=float(np.max(util_values)) if util_values else 0.0,
        throughput_jobs_per_hour=(
            len(outcomes) / makespan * 3600.0 if makespan > 0 else float("inf")
        ),
    )
