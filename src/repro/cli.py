"""Command-line interface.

::

    python -m repro list                          # engines, clusters, benchmarks
    python -m repro run --cluster physical --engine flexmap --benchmark WC
    python -m repro compare --cluster virtual --benchmark HR --seeds 1 2 3
    python -m repro figure fig5 --cluster physical
    python -m repro figure fig8 --scale 0.0625

Simulated seconds, deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from repro.experiments import figures as F
from repro.experiments.clusters import (
    heterogeneous6_cluster,
    homogeneous_cluster,
    multitenant_cluster,
    physical_cluster,
    virtual_cluster,
)
from repro.engines.driver import run_job
from repro.engines.registry import engine_names
from repro.experiments.report import render_series, render_table
from repro.workloads.puma import FIGURE_ORDER, PUMA_BENCHMARKS, puma

# partial (not lambda) so factories stay picklable for `compare --jobs N`.
CLUSTERS = {
    "physical": physical_cluster,
    "virtual": virtual_cluster,
    "homogeneous": homogeneous_cluster,
    "heterogeneous6": heterogeneous6_cluster,
    "multitenant20": functools.partial(multitenant_cluster, 0.2),
    "multitenant40": functools.partial(multitenant_cluster, 0.4),
}

BENCHMARKS = [w.abbrev for w in PUMA_BENCHMARKS]
FIGURES = ("fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "overhead", "ablation")


def _positive(kind, zero_ok: bool = False):
    """argparse ``type=`` for a positive ``kind`` (int or float), or a
    non-negative one with ``zero_ok``; infinity and NaN are rejected."""

    def parse(text: str):
        value = kind(text)
        finite = kind is int or math.isfinite(value)
        if not (finite and (value >= 0 if zero_ok else value > 0)):
            bound = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"must be finite and {bound}: {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in parse errors
    return parse


#: Seeds feed numpy's SeedSequence, which rejects negative values.
_seed = _positive(int, zero_ok=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------
def cmd_list(args) -> int:
    """List engines, clusters, workloads, figures and service policies."""
    from repro.multijob.arrivals import ARRIVAL_KINDS
    from repro.multijob.policies import CLUSTER_POLICIES

    print("engines:     " + ", ".join(engine_names()))
    print("clusters:    " + ", ".join(sorted(CLUSTERS)))
    print("benchmarks:  " + ", ".join(BENCHMARKS))
    print("workloads:   " + ", ".join(
        f"{w.abbrev}={w.name}" for w in PUMA_BENCHMARKS))
    print("figures:     " + ", ".join(FIGURES))
    print("policies:    " + ", ".join(sorted(CLUSTER_POLICIES))
          + "   (cluster schedulers for `repro serve`)")
    print("arrivals:    " + ", ".join(ARRIVAL_KINDS))
    return 0


def cmd_run(args) -> int:
    """Run one job and print its headline metrics."""
    obs = None
    if args.trace_out or args.metrics_out:
        from repro.obs import Observability

        obs = Observability.for_files(trace_path=args.trace_out)
    result = run_job(
        CLUSTERS[args.cluster],
        puma(args.benchmark),
        args.engine,
        seed=args.seed,
        input_mb=args.input_gb * 1024.0 if args.input_gb else None,
        obs=obs,
    )
    print(result.summary())
    maps = result.trace.maps()
    print(f"map tasks: {len(maps)}  reduce tasks: {len(result.trace.reduces())}  "
          f"map phase: {result.trace.map_phase_runtime:.1f}s")
    if obs is not None:
        obs.close()
        counters = result.metrics.get("counters", {})
        print("observability: "
              f"{counters.get('am.maps_launched', 0)} map launches, "
              f"{counters.get('am.heartbeat_rounds', 0)} heartbeat rounds, "
              f"{counters.get('monitor.samples', 0)} IPS samples")
        if args.trace_out:
            print(f"trace written to {args.trace_out}")
        if args.metrics_out:
            import json

            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(result.metrics, fh, indent=2)
                fh.write("\n")
            print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_trace(args) -> int:
    """Inspect a recorded JSONL trace."""
    if args.trace_command == "summarize":
        from repro.obs.summarize import summarize_trace

        try:
            text = summarize_trace(args.file, width=args.width)
        except OSError as exc:
            args.usage_error(f"cannot read trace file: {exc}")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            args.usage_error(f"{args.file} is not a JSONL trace: {exc}")
        print(text)
    return 0


def cmd_compare(args) -> int:
    """Run several engines over shared seeds and tabulate."""
    from repro.experiments.stats import compare_sweep

    engines = args.engines or engine_names()
    stats = compare_sweep(
        CLUSTERS[args.cluster], puma(args.benchmark), engines,
        seeds=list(args.seeds),
        baseline="hadoop-64" if "hadoop-64" in engines else None,
        jobs=args.jobs,
        input_mb=args.input_gb * 1024.0 if args.input_gb else None,
    )
    rows = [
        [e, s["jct_mean"], s["jct_std"], s["efficiency_mean"], s["jct_normalized"]]
        for e, s in stats.items()
    ]
    print(render_table(
        f"{args.benchmark} on {args.cluster} (seeds {args.seeds})",
        ["engine", "jct_s", "std", "efficiency", "normalized"],
        rows,
        col_width=18,
    ))
    return 0


def _parse_queues(text: str | None) -> dict[str, float] | None:
    """Parse ``name=weight,name=weight`` capacity-queue shares."""
    if not text:
        return None
    queues: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad queue spec {part!r}; expected name=weight")
        name, _, weight = part.partition("=")
        try:
            queues[name.strip()] = float(weight)
        except ValueError:
            raise ValueError(f"bad queue weight in {part!r}") from None
    return queues or None


def cmd_serve(args) -> int:
    """Run a multi-job arrival stream and print the cluster SLO report."""
    from repro.multijob.arrivals import (
        ClosedLoopArrivals,
        PoissonArrivals,
        load_arrival_trace,
    )
    from repro.multijob.policies import make_policy
    from repro.multijob.service import ClusterService
    from repro.sim.random import RandomStreams

    if args.queues and args.policy != "capacity":
        args.usage_error("--queues applies only to --policy capacity")
    if args.arrivals == "trace" and not args.trace_file:
        args.usage_error("--arrivals trace requires --trace-file")
    engines = tuple(args.engines)
    benchmarks = tuple(args.benchmarks)
    # The arrival processes and the policy validate their settings; a bad
    # value or an unreadable trace file is a usage error, reported like any
    # other argparse error before the trace sink is opened.
    try:
        if args.arrivals == "poisson":
            arrivals = PoissonArrivals(
                rate=args.rate,
                n_jobs=args.n_jobs,
                rng=RandomStreams(args.seed).stream("arrivals"),
                benchmarks=benchmarks,
                engines=engines,
                input_scale=args.scale,
            )
        elif args.arrivals == "closed":
            arrivals = ClosedLoopArrivals(
                n_jobs=args.n_jobs,
                width=args.width,
                think_time_s=args.think_time,
                benchmarks=benchmarks,
                engines=engines,
                input_scale=args.scale,
            )
        else:  # trace
            arrivals = load_arrival_trace(args.trace_file)
        policy = make_policy(args.policy, _parse_queues(args.queues))
    except OSError as exc:
        args.usage_error(f"cannot read trace file: {exc}")
    except ValueError as exc:
        args.usage_error(str(exc))
    obs = None
    if args.trace_out:
        from repro.obs import Observability

        obs = Observability.for_files(trace_path=args.trace_out)
    service = ClusterService(
        CLUSTERS[args.cluster],
        arrivals,
        policy=policy,
        seed=args.seed,
        utilization_period_s=args.util_period,
        obs=obs,
    )
    result = service.run(compute_slowdown=not args.no_slowdown)
    print(result.report.render())
    if obs is not None:
        obs.close()
        print(f"trace written to {args.trace_out}")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(result.report.to_json())
        print(f"report written to {args.report_out}")
    return 0


def cmd_fuzz(args) -> int:
    """Fuzz the simulation stack with runtime invariants armed."""
    from repro.check.fuzz import fuzz_run
    from repro.check.harness import ScenarioConfig, run_scenario

    if args.replay:
        try:
            with open(args.replay, encoding="utf-8") as fh:
                config = ScenarioConfig.from_json(fh.read())
        except OSError as exc:
            args.usage_error(f"cannot read reproducer: {exc}")
        except (ValueError, TypeError) as exc:
            args.usage_error(f"{args.replay} is not a valid reproducer: {exc}")
        print(f"replaying reproducer: {config.describe()}")
        result = run_scenario(config, strict=True, max_events=args.max_events)
        print(f"replay clean: {result.report.summary()}")
        return 0

    result = fuzz_run(
        iterations=args.iterations,
        seed=args.seed,
        max_events=args.max_events,
        shrink_failures=not args.no_shrink,
        log=print if args.verbose else None,
    )
    if result.ok:
        print(
            f"fuzz ok: {result.passed}/{result.iterations} scenarios clean "
            f"(seed {result.seed})"
        )
        return 0
    failure = result.failure
    print(
        f"fuzz FAILED after {result.passed} clean scenario(s): "
        f"[{failure.kind}/{failure.rule}] {failure.message}",
        file=sys.stderr,
    )
    shrunk = result.shrunk_config or result.failing_config
    print(f"minimal reproducer ({result.shrink_steps} shrink probes):",
          file=sys.stderr)
    print(shrunk.to_json(), file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(shrunk.to_json() + "\n")
        print(f"reproducer written to {args.out}", file=sys.stderr)
    return 1


def cmd_diff(args) -> int:
    """Run the cross-engine differential (metamorphic) checks."""
    from repro.check.differential import run_differentials
    from repro.check.harness import ScenarioConfig

    config = ScenarioConfig(seed=args.seed, engine=args.engine)
    reports = run_differentials(config)
    failed = [r for r in reports if not r.ok]
    for report in reports:
        status = "ok  " if report.ok else "FAIL"
        print(f"{status} {report.name}: {report.detail}")
    return 1 if failed else 0


def cmd_figure(args) -> int:
    """Regenerate one paper figure at the chosen scale."""
    name = args.name
    if name == "fig1":
        data = F.fig1_task_runtimes(seed=args.seed)
        for cluster, runtimes in data.items():
            print(f"{cluster}: {len(runtimes)} maps, min {min(runtimes):.1f}s, "
                  f"max {max(runtimes):.1f}s, max/min {max(runtimes)/min(runtimes):.2f}")
    elif name == "fig2":
        data = F.fig2_static_binding(seed=args.seed)
        rows = [[e] + v for e, v in data.series.items()]
        print(render_table("Fig. 2 -- input share per node", ["engine"] + data.xs, rows, col_width=18))
    elif name == "fig3":
        for cluster in ("homogeneous", "heterogeneous"):
            d = F.fig3bcd_task_size_sweep(cluster=cluster, seeds=[args.seed])
            print(render_series(f"Fig. 3 -- {cluster}", d.series, d.xs))
    elif name in ("fig5", "fig6"):
        jct, eff = F.fig5_fig6_benchmarks(
            cluster=args.cluster, seeds=[args.seed], scale=args.scale
        )
        data = jct if name == "fig5" else eff
        rows = [
            [ab] + [data.series[e][i] for e in F.FIG5_ENGINES]
            for i, ab in enumerate(data.xs)
        ]
        print(render_table(f"{name} -- {args.cluster}", ["bench"] + F.FIG5_ENGINES, rows, col_width=14))
    elif name == "fig7":
        d = F.fig7_dynamic_sizing(cluster=args.cluster, seed=args.seed)
        print(d.notes)
        for role in ("fast", "slow"):
            sizes = d.series[f"{role}-size-bus"]
            print(f"{role}: peak {max(sizes)} BUs over {len(sizes)} tasks")
    elif name == "fig8":
        data = F.fig8_multitenant(seeds=[args.seed], scale=args.scale,
                                  benchmarks=FIGURE_ORDER[:4])
        for frac, fig in sorted(data.items()):
            rows = [
                [ab] + [fig.series[e][i] for e in F.FIG8_ENGINES]
                for i, ab in enumerate(fig.xs)
            ]
            print(render_table(f"fig8 -- {int(frac*100)}% slow", ["bench"] + F.FIG8_ENGINES, rows, col_width=18))
    elif name == "overhead":
        data = F.overhead_homogeneous(seeds=[args.seed])
        print(render_table("SIV-D overhead", ["metric", "value"],
                           [[k, v] for k, v in data.items()], col_width=22))
    elif name == "ablation":
        data = F.ablation_study(seeds=[args.seed])
        print(render_table("ablation", ["variant", "jct_s"],
                           [[k, v] for k, v in data.items()], col_width=18))
    else:
        raise SystemExit(f"unknown figure {name!r}; choose from {FIGURES}")
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="FlexMap reproduction (IPDPS'17)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list engines, clusters, benchmarks, figures")

    p_run = sub.add_parser("run", help="run one job")
    p_run.add_argument("--cluster", default="physical", choices=sorted(CLUSTERS))
    p_run.add_argument("--engine", default="flexmap", choices=engine_names())
    p_run.add_argument("--benchmark", default="WC", type=str.upper,
                       choices=BENCHMARKS)
    p_run.add_argument("--seed", type=_seed, default=1)
    p_run.add_argument("--input-gb", type=_positive(float), default=None)
    p_run.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write typed JSONL trace events to FILE")
    p_run.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the run's metrics snapshot (JSON) to FILE")

    p_cmp = sub.add_parser("compare", help="compare engines on one benchmark")
    p_cmp.add_argument("--cluster", default="physical", choices=sorted(CLUSTERS))
    p_cmp.add_argument("--benchmark", default="WC", type=str.upper,
                       choices=BENCHMARKS)
    p_cmp.add_argument("--engines", nargs="*", choices=engine_names())
    p_cmp.add_argument("--seeds", nargs="+", type=_seed, default=[1, 2])
    p_cmp.add_argument("--input-gb", type=_positive(float), default=None)
    p_cmp.add_argument("--jobs", type=_positive(int), default=1, metavar="N",
                       help="run seeds in N worker processes (1 = serial, "
                            "bit-identical output either way)")

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.add_argument("--cluster", default="physical",
                       choices=["physical", "virtual"])
    p_fig.add_argument("--seed", type=_seed, default=1)
    p_fig.add_argument("--scale", type=_positive(float), default=0.25)

    p_srv = sub.add_parser(
        "serve", help="run a multi-job arrival stream and report cluster SLOs"
    )
    p_srv.add_argument("--cluster", default="physical", choices=sorted(CLUSTERS))
    p_srv.add_argument("--arrivals", default="poisson",
                       choices=["poisson", "closed", "trace"])
    p_srv.add_argument("--rate", type=float, default=0.05,
                       help="poisson arrival rate in jobs/second")
    p_srv.add_argument("--n-jobs", type=int, default=20,
                       help="total jobs to submit (poisson/closed)")
    p_srv.add_argument("--width", type=int, default=4,
                       help="closed-loop multiprogramming level")
    p_srv.add_argument("--think-time", type=float, default=0.0,
                       help="closed-loop delay between completion and next admit")
    p_srv.add_argument("--trace-file", default=None, metavar="FILE",
                       help="arrival trace (JSONL) for --arrivals trace")
    p_srv.add_argument("--policy", default="fair",
                       choices=["fifo", "fair", "capacity"])
    p_srv.add_argument("--queues", default=None, metavar="Q=W,...",
                       help="capacity-queue weights, e.g. batch=3,adhoc=1 "
                            "(--policy capacity only)")
    p_srv.add_argument("--engines", nargs="*", default=["flexmap", "hadoop-64"],
                       choices=engine_names())
    p_srv.add_argument("--benchmarks", nargs="*", type=str.upper,
                       choices=BENCHMARKS,
                       default=["WC", "GR", "HR", "HM"])
    p_srv.add_argument("--scale", type=float, default=0.125,
                       help="input scale vs. Table II small sizes")
    p_srv.add_argument("--seed", type=_seed, default=1)
    p_srv.add_argument("--util-period", type=_positive(float), default=5.0,
                       help="utilization sampling period (sim seconds)")
    p_srv.add_argument("--no-slowdown", action="store_true",
                       help="skip the isolated baseline runs (faster)")
    p_srv.add_argument("--report-out", default=None, metavar="FILE",
                       help="write the SLO report as JSON to FILE")
    p_srv.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the service's typed JSONL trace to FILE")
    p_srv.set_defaults(usage_error=p_srv.error)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz the simulator with runtime invariants armed"
    )
    p_fuzz.add_argument("--iterations", type=_positive(int), default=25,
                        help="number of sampled scenarios to run")
    p_fuzz.add_argument("--seed", type=_seed, default=0,
                        help="sampler seed (same seed = same scenarios)")
    p_fuzz.add_argument("--max-events", type=_positive(int), default=5_000_000,
                        help="per-scenario simulated event budget")
    p_fuzz.add_argument("--out", default=None, metavar="FILE",
                        help="write the shrunk JSON reproducer to FILE on failure")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="replay a reproducer JSON instead of fuzzing")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report the raw failing config without shrinking")
    p_fuzz.add_argument("--verbose", action="store_true",
                        help="print a line per scenario")
    p_fuzz.set_defaults(usage_error=p_fuzz.error)

    p_diff = sub.add_parser(
        "diff", help="run cross-engine differential (metamorphic) checks"
    )
    p_diff.add_argument("--engine", default="flexmap", choices=engine_names())
    p_diff.add_argument("--seed", type=_seed, default=0)

    p_trace = sub.add_parser("trace", help="inspect a recorded JSONL trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize", help="render the per-node sizing timeline"
    )
    p_sum.add_argument("file", help="JSONL trace from `repro run --trace-out`")
    p_sum.add_argument("--width", type=_positive(int), default=48,
                       help="sparkline width in characters")
    p_sum.set_defaults(usage_error=p_sum.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "compare": cmd_compare,
                "figure": cmd_figure, "trace": cmd_trace, "serve": cmd_serve,
                "fuzz": cmd_fuzz, "diff": cmd_diff}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # The reader closed stdout (``repro trace summarize T | head``):
        # stop without a traceback, and point stdout at devnull so the
        # interpreter's flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
