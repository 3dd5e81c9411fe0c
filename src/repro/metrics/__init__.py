"""Evaluation metrics: efficiency (eq. 2) and sample summaries.

Productivity (eq. 1) is per attempt: :attr:`repro.sim.trace.TaskRecord.productivity`.
"""

from repro.metrics.efficiency import job_efficiency, serial_runtime
from repro.metrics.stats import Summary, normalized_runtime_pdf

__all__ = [
    "Summary",
    "job_efficiency",
    "normalized_runtime_pdf",
    "serial_runtime",
]
