"""FlexMap: elastic map tasks for heterogeneous MapReduce clusters.

The paper's primary contribution (Section III).  Components mirror Fig. 4:

* :class:`~repro.core.speed_monitor.SpeedMonitor` — per-node IPS tracking;
* :class:`~repro.core.sizing.DynamicSizer` — Algorithm 1 (vertical +
  horizontal scaling);
* :class:`~repro.core.data_provision.DataProvision` — task-size calculation
  for a granted container;
* :class:`~repro.core.late_binding.LateTaskBinder` — template management and
  locality-preserving split construction;
* :mod:`~repro.core.mbe` — multi-block execution (splits as BU arrays);
* :class:`~repro.core.reduce_bias.ReducePlacer` — capacity-biased reducer
  dispatch.

The augmented Application Master that ties these into the YARN substrate
is :class:`repro.engines.flexmap.FlexMapAM`.
"""

from repro.core.data_provision import DataProvision
from repro.core.late_binding import LateTaskBinder, MapTemplate
from repro.core.mbe import MultiBlockEngine
from repro.core.reduce_bias import ReducePlacer
from repro.core.sizing import DynamicSizer, SizingConfig
from repro.core.speed_monitor import SpeedMonitor

__all__ = [
    "DataProvision",
    "DynamicSizer",
    "LateTaskBinder",
    "MapTemplate",
    "MultiBlockEngine",
    "ReducePlacer",
    "SizingConfig",
    "SpeedMonitor",
]
