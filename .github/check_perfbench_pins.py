"""Compare a perfbench run with the values pinned in perfbench_pins.json.

Usage::

    python3 perfbench/run.py --workload all --seed 1 --seconds 3 --trace 1 > perfbench.out
    python3 .github/check_perfbench_pins.py perfbench.out

perfbench_pins.json is the benchmark's trajectory: a list of rows, oldest
first, one per change that was measured.  A row holds

* ``commit``: the commit measured; a row committed together with its own
  change names the commit it follows (``after <hash>``), since a commit
  cannot hold its own hash;
* ``pins``: the gated values, each named ``<workload>.<metric>``: a metric
  of the run's last (JSON) line, or ``sim_digest`` from the workload's
  ``simulated:`` line;
* ``cpu_s``: each workload's ``--trace 0`` ``cpu_s`` (median of the A/B
  runs that measured the change), recorded but not gated;
* ``reasons`` (where a pin moved): why each moved pin moved, by name.

The run is compared with the last row's pins.  Prints every pin the run
does not match, by name, and exits 1 if any.  A change that moves a pinned
value appends a row and says why.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

PINS = Path(__file__).with_name("perfbench_pins.json")


def run_values(text: str) -> dict:
    """``<workload>.<metric>`` -> value, for every metric and digest."""
    lines = text.splitlines()
    values = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    workload = None
    for line in lines[:-1]:
        started = re.match(r"workload (\S+) seed ", line)
        if started:
            workload = started.group(1)
        digest = re.search(r"sim_digest=([0-9a-f]+)", line)
        if digest:
            values[f"{workload}.sim_digest"] = digest.group(1)
    return values


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    got = run_values(Path(argv[1]).read_text())
    pins = json.loads(PINS.read_text())[-1]["pins"]
    mismatches = [
        f"{name}: pinned {want!r}, got {got.get(name, 'nothing')!r}"
        for name, want in pins.items()
        if got.get(name) != want
    ]
    for line in mismatches:
        print(line)
    print(f"{len(pins) - len(mismatches)} of {len(pins)} pinned values match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
