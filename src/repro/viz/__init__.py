"""Terminal visualization helpers (no plotting dependencies).

ASCII sparklines and Gantt charts used by the examples and benches to
show figure shapes without matplotlib.
"""

from repro.viz.ascii import gantt, sparkline

__all__ = ["gantt", "sparkline"]
