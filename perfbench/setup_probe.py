"""Set-up probe: import the simulator, build a workload, run its first event.

It prints ``ready`` and the CPU time the process has used since it
started; ``run.py`` takes that as one sample of the workload's ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import first_event  # noqa: E402

if __name__ == "__main__":
    first_event(sys.argv[1], int(sys.argv[2]))
    print(f"ready {time.process_time():.9f}", flush=True)
