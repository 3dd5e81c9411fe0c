"""Evaluation metrics: efficiency (eq. 2), JCT, stats.

Productivity (eq. 1) is per attempt: :attr:`repro.sim.trace.TaskRecord.productivity`.
"""

from repro.metrics.efficiency import job_efficiency, serial_runtime
from repro.metrics.jct import jct, normalized_jct
from repro.metrics.stats import normalized_runtime_pdf, runtime_variance

__all__ = [
    "jct",
    "job_efficiency",
    "normalized_jct",
    "normalized_runtime_pdf",
    "runtime_variance",
    "serial_runtime",
]
