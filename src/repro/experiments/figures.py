"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation; each returns
structured data (so tests can assert on shapes) and is scale-parameterized
(so the benches can run at laptop scale and a `--full` run can approach the
paper's input sizes).  See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sizing import BU_MB
from repro.engines import EngineSpec, run_job
from repro.engines.flexmap import FlexMapAM
from repro.engines.stock import StockHadoopAM
from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    three_node_example,
    virtual_cluster,
)
from repro.experiments.stats import compare_sweep, seed_sweep
from repro.metrics.stats import normalized_runtime_pdf
from repro.workloads.puma import FIGURE_ORDER, puma

#: Engines compared in Figs. 5/6 (small clusters).
FIG5_ENGINES = ["hadoop-128", "hadoop-64", "skewtune-64", "flexmap"]
#: Engines compared in Fig. 8 (40-node multi-tenant cluster).
FIG8_ENGINES = ["hadoop-64", "hadoop-nospec-64", "skewtune-64", "flexmap"]
#: Fig. 8's fractions of slowed nodes (Section IV-F).
FIG8_SLOW_FRACTIONS = (0.05, 0.1, 0.2, 0.4)


@dataclass
class FigureData:
    """Generic result container: labelled series over an x-axis."""

    figure: str
    xs: list = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""


# ---------------------------------------------------------------------------
# Fig. 1 — map task runtimes of wordcount in heterogeneous clusters
# ---------------------------------------------------------------------------
def fig1_task_runtimes(input_mb: float = 8192.0, seed: int = 1) -> dict[str, list[float]]:
    """Per-task map runtimes on the physical and virtual clusters.

    Expected shape: ~2x slowest/fastest spread on the physical cluster and a
    heavy 5x tail on the virtual cluster (paper Fig. 1a/1b).
    """
    out = {}
    for name, factory in [("physical", physical_cluster), ("virtual", virtual_cluster)]:
        r = run_job(factory, puma("WC"), "hadoop-64", seed=seed, input_mb=input_mb)
        out[name] = sorted(r.trace.map_runtimes())
    return out


# ---------------------------------------------------------------------------
# Fig. 2 — static binding limits load balancing (worked example)
# ---------------------------------------------------------------------------
def fig2_static_binding(seed: int = 3) -> FigureData:
    """Three nodes at 1:1:3 capacity, four one-block tasks, replication 3.

    Stock Hadoop's completed-task ratio stays near 1:1:2 (the fast node is
    starved once in-flight splits are pinned), while FlexMap's BU
    provisioning approaches the 1:1:3 capacity ratio.
    """
    from repro.mapreduce.job import JobSpec

    job = JobSpec(
        "fig2", input_mb=4 * 64.0, map_cost_s_per_mb=0.625, shuffle_ratio=0.0,
        num_reducers=0, input_file="fig2-input",
    )
    data = FigureData(figure="fig2", xs=["slow-a", "slow-b", "fast"])
    for engine in ("hadoop-nospec-64", "flexmap"):
        r = run_job(three_node_example, job, engine, seed=seed)
        shares = {n: 0.0 for n in data.xs}
        for m in r.trace.maps():
            shares[m.node] += m.processed_mb
        data.series[engine] = [shares[n] / job.input_mb for n in data.xs]
    data.notes = "fraction of input processed per node; capacity shares are 0.2/0.2/0.6"
    return data


# ---------------------------------------------------------------------------
# Fig. 3 — implications of map task size
# ---------------------------------------------------------------------------
TASK_SIZES_MB = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def fig3a_runtime_pdf(input_mb: float = 8192.0, seed: int = 1) -> FigureData:
    """PDF of normalized map runtimes at 8 vs 64 MB on the virtual cluster."""
    data = FigureData(figure="fig3a")
    for size in (8.0, 64.0):
        spec = EngineSpec(f"hadoop-{int(size)}", size, StockHadoopAM)
        r = run_job(virtual_cluster, puma("WC"), spec, seed=seed, input_mb=input_mb)
        centers, density = normalized_runtime_pdf(r.trace.map_runtimes())
        data.xs = centers.tolist()
        data.series[f"{int(size)}MB"] = density.tolist()
    data.notes = "small tasks concentrate (low variance); 64MB has a heavy tail"
    return data


def fig3bcd_task_size_sweep(
    input_mb: float = 8192.0,
    seeds: list[int] | None = None,
    cluster: str = "homogeneous",
) -> FigureData:
    """JCT, productivity, efficiency vs task size (Fig. 3b/3c on the
    homogeneous cluster; Fig. 3d with ``cluster='heterogeneous'``)."""
    seeds = seeds or [1, 2]
    factory = homogeneous_cluster if cluster == "homogeneous" else heterogeneous6_cluster
    data = FigureData(figure="fig3bcd", xs=list(TASK_SIZES_MB))
    jcts, prods, effs = [], [], []
    for size in TASK_SIZES_MB:
        spec = EngineSpec(f"hadoop-{int(size)}", size, StockHadoopAM)
        sweep = seed_sweep(factory, puma("WC"), spec, seeds, input_mb=input_mb)
        jcts.append(sweep.jct.mean)
        prods.append(float(np.mean([
            np.mean([m.productivity for m in r.trace.maps()]) for r in sweep.runs
        ])))
        effs.append(sweep.efficiency.mean)
    data.series = {"jct_s": jcts, "productivity": prods, "efficiency": effs}
    data.notes = f"{cluster} cluster; productivity rises with size, JCT is U-shaped under heterogeneity"
    return data


# ---------------------------------------------------------------------------
# Figs. 5 & 6 — normalized JCT and job efficiency across PUMA benchmarks
# ---------------------------------------------------------------------------
def fig5_fig6_benchmarks(
    cluster: str = "physical",
    benchmarks: tuple[str, ...] = FIGURE_ORDER,
    seeds: list[int] | None = None,
    scale: float = 0.25,
) -> tuple[FigureData, FigureData]:
    """JCT (normalized to Hadoop-64m) and efficiency for the PUMA suite.

    ``scale`` multiplies Table II's small input sizes so benches finish
    quickly; 1.0 reproduces the paper's sizes.
    """
    seeds = seeds or [1, 2]
    factory = physical_cluster if cluster == "physical" else virtual_cluster
    jct_data = FigureData(figure=f"fig5-{cluster}", xs=list(benchmarks),
                          series={e: [] for e in FIG5_ENGINES})
    eff_data = FigureData(figure=f"fig6-{cluster}", xs=list(benchmarks),
                          series={e: [] for e in FIG5_ENGINES})
    for ab in benchmarks:
        wl = puma(ab)
        stats = compare_sweep(
            factory, wl, FIG5_ENGINES, seeds, baseline="hadoop-64",
            input_mb=wl.small_gb * 1024.0 * scale,
        )
        for engine, row in stats.items():
            jct_data.series[engine].append(row["jct_normalized"])
            eff_data.series[engine].append(row["efficiency_mean"])
    jct_data.notes = "normalized to Hadoop-64m (paper normalizes the same way)"
    return jct_data, eff_data


# ---------------------------------------------------------------------------
# Fig. 7 — dynamic mapper sizing timeline (histogram-ratings)
# ---------------------------------------------------------------------------
def fig7_dynamic_sizing(
    cluster: str = "physical", input_mb: float = 4096.0, seed: int = 2
) -> FigureData:
    """Task size and productivity vs map-phase progress on the fastest and
    slowest nodes (paper Fig. 7)."""
    factory = physical_cluster if cluster == "physical" else virtual_cluster
    r = run_job(factory, puma("HR"), "flexmap", seed=seed, input_mb=input_mb)
    am: FlexMapAM = r.am
    log = am.sizing_log
    if not log:
        raise RuntimeError("empty sizing log")
    phase_end = max(e[0] for e in log)
    # Identify fastest/slowest node by observed monitor speed.
    speeds = {n: am.monitor.get_speed(n) or 0.0 for n in am.monitor.known_nodes()}
    fast = max(speeds, key=speeds.get)
    slow = min(speeds, key=speeds.get)
    data = FigureData(figure=f"fig7-{cluster}")
    for label, node in [("fast", fast), ("slow", slow)]:
        points = [
            (t / phase_end * 100.0, bus, alg1, prod)
            for (t, n, bus, alg1, prod) in log
            if n == node
        ]
        data.series[f"{label}-size-bus"] = [p[2] for p in points]  # Algorithm 1's m_i
        data.series[f"{label}-assigned-bus"] = [p[1] for p in points]  # after tail cap
        data.series[f"{label}-productivity"] = [p[3] for p in points]
        data.series[f"{label}-progress-pct"] = [p[0] for p in points]
    data.notes = (
        f"fast={fast} slow={slow}; size-bus is Algorithm 1's m_i, assigned-bus "
        "the dispatched size after the end-of-input cap"
    )
    return data


# ---------------------------------------------------------------------------
# §IV-D — FlexMap overhead on a homogeneous cluster
# ---------------------------------------------------------------------------
def overhead_homogeneous(
    input_mb: float = 8192.0, seeds: list[int] | None = None
) -> dict[str, float]:
    """FlexMap where elasticity cannot help (paper §IV-D: ~5% penalty).

    Besides the paper's FlexMap-vs-stock-64MB comparison we also report the
    penalty against an *oracle static* size (256 MB, near-optimal under the
    Fig. 3b productivity curve): that isolates the cost of starting small
    and growing — the overhead §IV-D describes — from the unrelated
    advantage FlexMap gains by ending up with larger-than-64MB tasks.
    """
    seeds = seeds or [1, 2, 3]

    def mean_jct(engine) -> float:
        return seed_sweep(
            homogeneous_cluster, puma("WC"), engine, seeds, input_mb=input_mb
        ).jct.mean

    flex = mean_jct("flexmap")
    stock64 = mean_jct("hadoop-64")
    oracle = mean_jct(EngineSpec("hadoop-256", 256.0, StockHadoopAM))
    return {
        "flexmap_jct": flex,
        "hadoop64_jct": stock64,
        "oracle256_jct": oracle,
        "penalty_vs_hadoop64": flex / stock64 - 1.0,
        "penalty_vs_oracle": flex / oracle - 1.0,
    }


# ---------------------------------------------------------------------------
# Fig. 8 — 40-node multi-tenant cluster, varying slow-node fraction
# ---------------------------------------------------------------------------
def fig8_multitenant(
    benchmarks: tuple[str, ...] = FIGURE_ORDER,
    seeds: list[int] | None = None,
    scale: float = 0.125,
) -> dict[float, FigureData]:
    """Normalized JCT per benchmark at each of ``FIG8_SLOW_FRACTIONS``.

    ``scale`` multiplies Table II's *large* inputs (256 GB at scale 1.0).
    """
    seeds = seeds or [1, 2]
    out = {}
    for frac in FIG8_SLOW_FRACTIONS:
        data = FigureData(figure=f"fig8-{int(frac * 100)}pct", xs=list(benchmarks),
                          series={e: [] for e in FIG8_ENGINES})
        for ab in benchmarks:
            wl = puma(ab)
            stats = compare_sweep(
                lambda: multitenant_cluster(frac), wl, FIG8_ENGINES, seeds,
                baseline="hadoop-64", input_mb=wl.large_gb * 1024.0 * scale,
            )
            for engine, row in stats.items():
                data.series[engine].append(row["jct_normalized"])
        out[frac] = data
    return out


# ---------------------------------------------------------------------------
# Ablations (beyond the paper; DESIGN.md §6)
# ---------------------------------------------------------------------------
ABLATIONS: dict[str, dict] = {
    "flexmap": {},
    "no-horizontal": {"horizontal_scaling": False},
    "no-vertical": {"vertical_scaling": False},
    "no-reduce-bias": {"reduce_bias": False},
}


def ablation_study(
    input_mb: float = 8192.0, seeds: list[int] | None = None, benchmark: str = "WC"
) -> dict[str, float]:
    """JCT of FlexMap variants with one mechanism disabled at a time."""
    seeds = seeds or [1, 2]
    out = {}
    for name, kwargs in ABLATIONS.items():
        spec = EngineSpec(name, BU_MB, FlexMapAM, dict(kwargs))
        out[name] = seed_sweep(
            physical_cluster, puma(benchmark), spec, seeds, input_mb=input_mb
        ).jct.mean
    return out
