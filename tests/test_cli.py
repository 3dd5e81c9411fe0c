"""CLI tests: every subcommand parses and runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "flexmap" in out and "physical" in out and "fig8" in out


def test_run_subcommand(capsys):
    rc = main(["run", "--cluster", "heterogeneous6", "--engine", "hadoop-64",
               "--benchmark", "HR", "--input-gb", "1", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "JCT" in out and "map tasks" in out


def test_compare_subcommand(capsys):
    rc = main(["compare", "--cluster", "heterogeneous6", "--benchmark", "HR",
               "--engines", "hadoop-64", "flexmap", "--seeds", "1",
               "--input-gb", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized" in out and "flexmap" in out


def test_figure_fig2(capsys):
    assert main(["figure", "fig2"]) == 0
    assert "input share" in capsys.readouterr().out


def test_figure_fig7(capsys):
    assert main(["figure", "fig7", "--cluster", "physical"]) == 0
    out = capsys.readouterr().out
    assert "fast" in out and "BUs" in out


def test_run_with_trace_and_metrics_roundtrips_through_summarize(capsys, tmp_path):
    trace_file = tmp_path / "run.jsonl"
    metrics_file = tmp_path / "run-metrics.json"
    rc = main(["run", "--cluster", "heterogeneous6", "--engine", "flexmap",
               "--benchmark", "HR", "--input-gb", "1", "--seed", "3",
               "--trace-out", str(trace_file), "--metrics-out", str(metrics_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "observability:" in out and "trace written" in out
    assert trace_file.exists() and metrics_file.exists()

    import json

    metrics = json.loads(metrics_file.read_text())
    assert metrics["counters"]["am.maps_launched"] > 0

    rc = main(["trace", "summarize", str(trace_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-node sizing timeline" in out
    assert "engine=flexmap" in out
    assert "s_i" in out and "ips" in out


def test_trace_summarize_into_a_closed_stdout_ends_quietly():
    golden = Path(__file__).parent / "data" / "golden_serve_closed_loop.jsonl"
    src = Path(__file__).parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "summarize", str(golden)],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_trace_summarize_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace"])


def test_unknown_engine_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--engine", "nope"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "nope"])


def test_unknown_cluster_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--cluster", "nope", "--input-gb", "1"])


# ---------------------------------------------------------------------------
# repro serve / extended list
# ---------------------------------------------------------------------------
def test_list_shows_policies_and_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fair" in out and "capacity" in out and "fifo" in out
    assert "WC=" in out and "poisson" in out


def test_serve_poisson_small(capsys, tmp_path):
    report_file = tmp_path / "slo.json"
    rc = main([
        "serve", "--cluster", "heterogeneous6", "--arrivals", "poisson",
        "--rate", "0.05", "--n-jobs", "4", "--policy", "fair",
        "--seed", "1", "--scale", "0.125", "--no-slowdown",
        "--report-out", str(report_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cluster service report" in out
    assert "makespan" in out

    import json

    report = json.loads(report_file.read_text())
    assert report["n_jobs"] == 4
    assert report["policy"] == "fair"


def test_serve_same_seed_same_report(capsys):
    argv = ["serve", "--cluster", "heterogeneous6", "--arrivals", "closed",
            "--n-jobs", "3", "--width", "2", "--policy", "fifo",
            "--seed", "7", "--scale", "0.125", "--no-slowdown"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_serve_trace_arrivals(capsys, tmp_path):
    trace = tmp_path / "arrivals.jsonl"
    trace.write_text(
        '{"t": 0.0, "benchmark": "WC", "engine": "flexmap", "input_mb": 256}\n'
        '{"t": 5.0, "benchmark": "GR", "engine": "hadoop-64", "input_mb": 256,'
        ' "queue": "batch"}\n'
    )
    rc = main(["serve", "--cluster", "heterogeneous6", "--arrivals", "trace",
               "--trace-file", str(trace), "--policy", "capacity",
               "--queues", "default=3,batch=1", "--no-slowdown"])
    assert rc == 0
    assert "jobs=2" in capsys.readouterr().out


def test_serve_trace_arrivals_requires_file():
    with pytest.raises(SystemExit):
        main(["serve", "--arrivals", "trace"])


def test_serve_rejects_bad_queues():
    with pytest.raises(SystemExit):
        main(["serve", "--queues", "no-equals-sign", "--n-jobs", "1"])


@pytest.mark.parametrize("bad_args,message", [
    (["--n-jobs", "0"], "need at least one job"),
    (["--rate", "0"], "non-positive arrival rate"),
    (["--arrivals", "closed", "--width", "0"], "non-positive width"),
    (["--scale", "0"], "non-positive input scale"),
    (["--policy", "capacity", "--queues", "batch=0"], "non-positive capacity"),
])
def test_serve_bad_input_is_a_usage_error(capsys, bad_args, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--cluster", "heterogeneous6", "--no-slowdown", *bad_args])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"repro serve: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "--input-gb", "0"],
    ["run", "--input-gb", "-1"],
    ["run", "--benchmark", "XX"],
    ["compare", "--cluster", "nope"],
    ["compare", "--benchmark", "XX"],
    ["compare", "--seeds"],
    ["compare", "--jobs", "0"],
    ["figure", "fig5", "--scale", "0"],
    ["serve", "--benchmarks", "XX"],
    ["serve", "--policy", "fair", "--queues", "batch=3"],
    ["run", "--seed", "-1"],
    ["compare", "--seeds", "1", "-1"],
    ["figure", "fig1", "--seed", "-1"],
    ["fuzz", "--seed", "-1"],
    ["diff", "--seed", "-1"],
    ["fuzz", "--iterations", "0"],
    ["fuzz", "--iterations", "-1"],
    ["fuzz", "--max-events", "0"],
    ["fuzz", "--replay", "no-such-reproducer.json"],
    ["fuzz", "--replay", os.devnull],
    ["trace", "summarize", "trace.jsonl", "--width", "0"],
    ["serve", "--arrivals", "trace"],
    ["serve", "--arrivals", "trace", "--trace-file", "no-such.jsonl"],
    ["serve", "--arrivals", "trace", "--trace-file", "bad-benchmark.jsonl"],
    ["serve", "--arrivals", "trace", "--trace-file", "bad-engine.jsonl"],
    ["serve", "--policy", "capacity", "--queues", "a=x"],
    ["serve", "--util-period", "0"],
    ["trace", "summarize", "no-such.jsonl"],
    ["trace", "summarize", "."],
    ["trace", "summarize", "not-jsonl.txt"],
    ["trace", "summarize", "bad-benchmark.jsonl"],
    ["trace", "summarize", "null-time.jsonl"],
    ["trace", "summarize", "bool-time.jsonl"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad-benchmark.jsonl").write_text('{"t": 0, "benchmark": "XX"}\n')
    (tmp_path / "bad-engine.jsonl").write_text(
        '{"t": 0, "benchmark": "WC", "engine": "nope"}\n'
    )
    (tmp_path / "not-jsonl.txt").write_text("not json\n")
    (tmp_path / "null-time.jsonl").write_text('{"ev": "job_end", "t": null}\n')
    (tmp_path / "bool-time.jsonl").write_text('{"ev": "job_end", "t": true}\n')
    if argv[0] == "serve":
        argv = [*argv, "--trace-out", "F"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    # The error names the (sub)command whose parser rejected the input.
    command = "trace summarize" if argv[0] == "trace" else argv[0]
    assert len(errors) == 1 and errors[0].startswith(f"repro {command}: error: ")
    # A rejected serve leaves no trace file behind.
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("event,field", [
    ('{"ev": "task_bind", "t": 1}', "node"),
    ('{"ev": "sizing", "t": 1, "node": "a"}', "s_i_before"),
    ('{"ev": "task_bind", "t": 1, "node": "a", "n_bus": null, "s_i_mb": 8}', "n_bus"),
    ('{"ev": "job_end", "t": 1, "jct": null}', "jct"),
    ('{"ev": "ips", "t": 1, "node": 3, "smoothed": 1.0}', "node"),
    ('{"ev": "sizing", "t": 1, "node": "a", "s_i_before": 8, "s_i_after": 16, '
     '"decision": ["fast"]}', "decision"),
])
def test_trace_summarize_names_an_event_missing_a_field(capsys, tmp_path, event, field):
    """A missing field, and one of the wrong type, are named alike."""
    trace_file = tmp_path / "t.jsonl"
    trace_file.write_text(event + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "summarize", str(trace_file)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("repro trace summarize: error: ")
    decoded = json.loads(event)
    fault = "has a wrong-typed" if field in decoded else "lacks the"
    assert f"a {decoded['ev']} event at t=1 {fault} '{field}' field" in errors[0]


@pytest.mark.parametrize("override", [
    {"speeds": [0.0], "slots": [2]},
    {"speeds": [1.0], "slots": [0]},
    {"input_mb": -5},
    {"reducers": -1},
    {"shuffle_ratio": -1},
    {"slow_fraction": 2},
    {"n_jobs": 2, "arrival_rate": 0},
], ids=lambda override: " ".join(f"{k}={v}" for k, v in override.items()))
def test_fuzz_replay_rejects_an_out_of_range_reproducer(capsys, tmp_path, override):
    from repro.check import ScenarioConfig

    fields = {**ScenarioConfig().to_dict(), **override}
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict(fields)
    repro_file = tmp_path / "repro.json"
    repro_file.write_text(json.dumps(fields))
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--replay", str(repro_file)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "is not a valid reproducer" in err


def test_fuzz_small_campaign_clean(capsys):
    assert main(["fuzz", "--iterations", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "fuzz ok: 3/3" in out


def test_fuzz_replay_reproducer(capsys, tmp_path):
    from repro.check import ScenarioConfig

    repro_file = tmp_path / "repro.json"
    repro_file.write_text(ScenarioConfig().to_json() + "\n")
    assert main(["fuzz", "--replay", str(repro_file)]) == 0
    assert "replay clean" in capsys.readouterr().out


def test_fuzz_writes_reproducer_on_failure(capsys, tmp_path, monkeypatch):
    # Force every sampled config to carry a seeded bug; the campaign must
    # fail, shrink, and write the reproducer JSON to --out.
    import repro.check.fuzz as fuzz_mod
    from dataclasses import replace

    real_sample = fuzz_mod.sample_scenario
    monkeypatch.setattr(
        fuzz_mod, "sample_scenario",
        lambda rng, index: replace(
            real_sample(rng, index), mutation="skip-heartbeat", n_jobs=1
        ),
    )
    out_file = tmp_path / "reproducer.json"
    rc = main(["fuzz", "--iterations", "2", "--seed", "0",
               "--out", str(out_file)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "heartbeat-order" in err
    from repro.check import ScenarioConfig

    replayed = ScenarioConfig.from_json(out_file.read_text())
    assert replayed.mutation == "skip-heartbeat"


def test_diff_subcommand(capsys):
    assert main(["diff", "--engine", "flexmap"]) == 0
    out = capsys.readouterr().out
    assert "speed-scaling" in out or "ok" in out
