"""Evaluation metrics: efficiency (eq. 2), JCT, stats.

Productivity (eq. 1) is per attempt: :attr:`repro.sim.trace.TaskRecord.productivity`.
"""

from repro.metrics.efficiency import job_efficiency, serial_runtime
from repro.metrics.jct import jct, normalized_jct
from repro.metrics.stats import Summary, normalized_runtime_pdf

__all__ = [
    "Summary",
    "jct",
    "job_efficiency",
    "normalized_jct",
    "normalized_runtime_pdf",
    "serial_runtime",
]
