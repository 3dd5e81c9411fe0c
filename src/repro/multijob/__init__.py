"""Multi-job cluster service: concurrent AMs sharing one simulated cluster.

The single-job driver (:func:`repro.engines.driver.run_job`) drives one
ApplicationMaster to completion on a private cluster.  This package turns
the simulator into a *cluster service*:

* :mod:`repro.multijob.policies` — cluster-level scheduling policies
  (``fifo``, ``fair``, ``capacity``) that decide which job's AM is offered
  each free slot;
* :mod:`repro.multijob.arrivals` — job arrival processes (Poisson open
  loop, closed loop, trace-driven from a JSONL workload file);
* :mod:`repro.multijob.service` — the driver that submits arriving jobs,
  shares one Simulator/NameNode/SpeedMonitor across engines, and collects
  per-job outcomes;
* :mod:`repro.multijob.slo` — cluster-level service metrics: makespan, JCT
  percentiles, per-job slowdown vs. isolated runs, utilization.
"""

from __future__ import annotations

from repro.multijob.arrivals import (
    ARRIVAL_KINDS,
    ClosedLoopArrivals,
    JobRequest,
    PoissonArrivals,
    TraceArrivals,
    load_arrival_trace,
)
from repro.multijob.policies import (
    CLUSTER_POLICIES,
    CapacityPolicy,
    ClusterSchedulerPolicy,
    FairPolicy,
    FifoPolicy,
    make_policy,
)
from repro.multijob.service import ClusterService, JobOutcome, ServiceResult
from repro.multijob.slo import SLOReport, compute_slo

__all__ = [
    "ARRIVAL_KINDS",
    "CLUSTER_POLICIES",
    "CapacityPolicy",
    "ClosedLoopArrivals",
    "ClusterSchedulerPolicy",
    "ClusterService",
    "FairPolicy",
    "FifoPolicy",
    "JobOutcome",
    "JobRequest",
    "PoissonArrivals",
    "SLOReport",
    "ServiceResult",
    "TraceArrivals",
    "compute_slo",
    "load_arrival_trace",
    "make_policy",
]
