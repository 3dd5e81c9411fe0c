"""The simulator benchmark: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload serve-mt40 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

One run measures one workload in this process.  It first times the
workload's set-up in fresh child processes, then runs *cycles* over the
workload's inputs (one pass per sub-seed, see ``workloads.py``) until
``--seconds`` have gone by.  With ``--trace 0`` it reports the end-to-end
metrics, timed in reference-normalised CPU seconds (``meter.py``); with
``--trace 1`` it alternates untraced and traced cycles and reports the
per-layer metrics (``probes.py``), timed on the wall clock.  Every pass is checked:
jobs complete, map output adds up to the input, fuzz scenarios finish with
a clean check report, and repeated passes of one seed give identical
digests and counters.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own child process, serially.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

from meter import Meter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig8-single", "serve-mt40", "fuzz-checked")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
}
RATIOS = (
    "yarn.offers_per_grant",
    "engines.spec_useful_frac",
    "hdfs.remote_bu_frac",
    "mapreduce.killed_frac",
)
#: Pass counters reported as check-layer metrics.
CHECK_COUNTERS = {
    "check.scenarios": "scenarios",
    "check.violations": "violations",
    "check.events_checked": "events_checked",
    "check.checks": "checks",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> float:
    """Median CPU time from process start to the workload's first event.

    CPU time, like ``cpu_s``, leaves out the time a shared host runs
    someone else; the probe does its imports from the page cache.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            words = proc.stdout.readline().split()
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(float(words[1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------
def run_cycle(runner, seeds: list[int], tracer=None) -> tuple[float, list]:
    """One pass per sub-seed; returns (summed pass wall time, pass results).

    Untraced cycles time their units with a calibrating meter; its
    reference runs are left out of the wall time.  Traced cycles run no
    reference loop, and a tracer keeps the spans of the first pass only.
    """
    meter = Meter(calibrate=tracer is None)
    wall = 0.0
    passes = []
    for seed in seeds:
        start = time.perf_counter()
        reference_before = meter.reference_wall_s
        passes.append(runner(seed, meter))
        meter.flush()
        wall += time.perf_counter() - start - (meter.reference_wall_s - reference_before)
        # Free the pass's cyclic garbage now, so the process's peak memory
        # is that of one pass and not of however many the run fitted in.
        gc.collect()
        if tracer is not None:
            tracer.keep_spans = False
    return wall, passes


def signature(result) -> tuple:
    """What two passes over one seed must agree on."""
    return (
        result.digest,
        tuple(sorted(result.counters.items())),
        result.jobs,
        len(result.failures),
    )


def add_samples(samples: list[list[float]], passes) -> bool:
    """Append each unit's time to its sample list; False on a shape
    mismatch (a repeated cycle ran other units than the first)."""
    times = [t for p in passes for t in p.unit_times]
    if not samples:
        samples.extend([] for _ in times)
    if len(times) != len(samples):
        return False
    for unit, t in zip(samples, times):
        unit.append(t)
    return True


def cycle_time(samples: list[list[float]]) -> float:
    """Normalised CPU time of one cycle: each unit's median time, summed.

    The median over the run's cycles keeps the first pass's warm-up and
    the moments the reference loop misjudged the host's speed out of the
    figure wherever they fall.
    """
    return sum(statistics.median(unit) for unit in samples)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def write_spans(path: pathlib.Path, spans: list[tuple]) -> None:
    """Spans as gzipped TSV: name, start, end, index, parent, job."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tindex\tparent\tjob\n")
        for name, start, end, index, parent, job in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{index}\t{parent}\t{job or ''}\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from probes import LAYERS, LayerTracer
    from workloads import WORKLOADS, sub_seeds

    runner = WORKLOADS[workload][0]
    seeds = sub_seeds(workload, seed)
    setup_s = measure_setup(workload, seed)

    problems: list[str] = []
    attempted = failed = 0
    reference: list[tuple] | None = None
    untraced: list[list[float]] = []  # per unit, its time in each cycle
    cycle_walls: list[float] = []
    layer_runs: list[tuple[float, dict]] = []  # (traced cycle time, metrics)
    spans: list[tuple] = []
    first_passes: list = []

    def account(passes, samples=None) -> None:
        nonlocal attempted, failed, reference
        if samples is not None and not add_samples(samples, passes):
            problems.append("a repeated cycle ran other units than the first")
        sigs = [signature(p) for p in passes]
        if reference is None:
            reference = sigs
        elif sigs != reference:
            problems.append("a repeated pass gave other results than the first")
        for p in passes:
            attempted += p.attempted
            failed += len(p.failures)
            problems.extend(p.failures)

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, passes = run_cycle(runner, seeds)
        cycle_walls.append(wall)
        account(passes, untraced)
        if not first_passes:
            first_passes = passes
        if trace:
            with LayerTracer(keep_spans=not layer_runs) as tracer:
                wall, passes = run_cycle(runner, seeds, tracer)
            account(passes)
            layer_runs.append((wall, tracer.layer_metrics(wall)))
            if not spans:
                spans = tracer.spans
        round_s = time.perf_counter() - round_start
        if time.perf_counter() - start + round_s > seconds:
            break

    jobs = sum(p.jobs for p in first_passes)
    jcts = [j for p in first_passes for j in p.jcts]
    ratios = [r for p in first_passes for r in p.flex_ratios]
    counters: dict[str, int] = {}
    for p in first_passes:
        for k, v in p.counters.items():
            counters[k] = counters.get(k, 0) + v
    digest = hashlib.sha256(
        "".join(p.digest for p in first_passes).encode()
    ).hexdigest()[:16]

    cpu_s = cycle_time(untraced)
    if trace:
        # All layer times come from the fastest traced cycle, so they add
        # up to its wall time; counts must agree across traced cycles.
        traced_wall, metrics = min(layer_runs, key=lambda run: run[0])
        for key, value in metrics.items():
            if not key.endswith("_s") and any(run[1][key] != value for run in layer_runs):
                problems.append(f"traced counter {key} differs between cycles")
        for key, counter in CHECK_COUNTERS.items():
            metrics[key] = counters.get(counter, 0)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - min(cycle_walls)
        metrics["trace.spans"] = len(spans)
        if spans:
            write_spans(OUT_DIR / f"spans-{workload}-{seed}.tsv.gz", spans)
    else:
        metrics = {
            "setup_s": setup_s,
            "cpu_s": cpu_s,
            "jobs_per_s": jobs / cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    print(f"workload {workload} seed {seed}: sub-seeds {seeds}, "
          f"{len(cycle_walls)} untraced and {len(layer_runs)} traced cycle(s), "
          f"{jobs} jobs per cycle, untraced cycle wall time "
          f"{min(cycle_walls):.3f}-{max(cycle_walls):.3f} s")
    if jcts:
        print(f"  simulated: jct_p50={percentile(jcts, 0.5):.1f}s "
              f"jct_p95={percentile(jcts, 0.95):.1f}s "
              f"makespan={max(p.makespan for p in first_passes):.1f}s"
              + (f" flexmap/hadoop-64={statistics.mean(ratios):.3f}" if ratios else "")
              + f" sim_digest={digest}")
    print("  counters: " + " ".join(f"{k}={v}" for k, v in sorted(counters.items())))
    print(f"  failed_frac={failed / max(1, attempted):.6f} ({failed}/{attempted})")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {unit_of(key)}")
    if trace:
        traced_wall = metrics["trace.wall_s"]
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  shape: spec_scan/offer_round="
              f"{metrics['engines.spec_scan_s'] / max(metrics['yarn.offer_round_s'], 1e-12):.3f} "
              f"offer_round/traced_wall={metrics['yarn.offer_round_s'] / traced_wall:.3f} "
              f"spec_scan/traced_wall={metrics['engines.spec_scan_s'] / traced_wall:.3f} "
              f"layer_self_sum/traced_wall={self_sum / traced_wall:.3f}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
