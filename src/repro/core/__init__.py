"""FlexMap: elastic map tasks for heterogeneous MapReduce clusters.

The paper's primary contribution (Section III).  Components mirror Fig. 4:

* :class:`~repro.core.speed_monitor.SpeedMonitor` — per-node IPS tracking;
* :class:`~repro.core.sizing.DynamicSizer` — Algorithm 1 (vertical +
  horizontal scaling);
* :class:`~repro.core.data_provision.DataProvision` — task-size calculation
  for a granted container;
* :class:`~repro.core.late_binding.LateTaskBinder` — Late Task Binding:
  locality-preserving split construction;
* :class:`~repro.core.reduce_bias.ReducePlacer` — capacity-biased reducer
  dispatch.

Multi-block execution (Section III-B) has no module of its own: a split is
an array of BUs (:class:`repro.mapreduce.split.InputSplit`) and a
:class:`repro.mapreduce.attempt.TaskAttempt` reports progress over the
aggregate size.  The augmented Application Master that ties these into the
YARN substrate is :class:`repro.engines.flexmap.FlexMapAM`.
"""

from repro.core.data_provision import DataProvision
from repro.core.late_binding import LateTaskBinder
from repro.core.reduce_bias import ReducePlacer
from repro.core.sizing import DynamicSizer
from repro.core.speed_monitor import SpeedMonitor

__all__ = [
    "DataProvision",
    "DynamicSizer",
    "LateTaskBinder",
    "ReducePlacer",
    "SpeedMonitor",
]
