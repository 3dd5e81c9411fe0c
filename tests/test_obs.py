"""Tests for the structured observability layer (repro.obs)."""

import json
from pathlib import Path

import pytest

from repro.engines import stock
from repro.obs import (
    NULL_EMITTER,
    JsonlTraceEmitter,
    MemoryTraceEmitter,
    MetricsRegistry,
    Observability,
    read_trace,
)
from repro.obs.summarize import node_series, summarize_trace
from repro.sim.engine import Simulator
from tests.conftest import quick_run


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------
def test_counter_gauge_histogram_snapshot():
    reg = MetricsRegistry()
    for _ in range(5):
        reg.counter("c").inc()
    reg.gauge("g").set(2.5)
    for v in [1.0, 2.0, 3.0, 4.0]:
        reg.histogram("h").observe(v)
    snap = reg.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 2.5
    h = snap["histograms"]["h"]
    assert h["count"] == 4
    assert h["mean"] == pytest.approx(2.5)
    assert h["min"] == 1.0 and h["max"] == 4.0


def test_empty_histogram_summary():
    reg = MetricsRegistry()
    assert reg.histogram("h").summary() == {"count": 0}


def test_metrics_write_json_roundtrip():
    reg = MetricsRegistry()
    for _ in range(3):
        reg.counter("x").inc()
    reg.histogram("h").observe(2.0)
    assert json.loads(json.dumps(reg.snapshot()))["counters"]["x"] == 3


# ---------------------------------------------------------------------------
# trace emitters
# ---------------------------------------------------------------------------
def test_null_emitter_is_noop():
    NULL_EMITTER.emit("anything", 1.0, node="a")  # must not raise
    NULL_EMITTER.close()


def test_memory_emitter_records_typed_events():
    em = MemoryTraceEmitter()
    em.emit("sizing", 12.5, node="a", decision="fast")
    assert em.events == [{"ev": "sizing", "t": 12.5, "node": "a", "decision": "fast"}]


def test_jsonl_emitter_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    em = JsonlTraceEmitter(path)
    em.emit("map_launch", 1.0, task="m1", node="a")
    em.emit("job_end", 9.0, jct=9.0)
    em.close()
    events = read_trace(path)
    assert [e["ev"] for e in events] == ["map_launch", "job_end"]
    assert events[0]["task"] == "m1"
    assert events[1]["t"] == 9.0


# ---------------------------------------------------------------------------
# engine instrumentation (sampled)
# ---------------------------------------------------------------------------
def test_engine_record_obs_gauges():
    obs = Observability()
    sim = Simulator(obs=obs)
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.0)
    gauges = obs.metrics.snapshot()["gauges"]
    assert gauges["sim.events_processed"] == 2
    assert gauges["sim.heap_depth"] == 1
    assert gauges["sim.now"] == 2.0


def test_engine_without_obs_record_obs_is_noop():
    sim = Simulator()
    sim.record_obs()  # must not raise


# ---------------------------------------------------------------------------
# end-to-end: instrumented runs
# ---------------------------------------------------------------------------
def test_flexmap_run_emits_sizing_trace_and_metrics():
    obs = Observability(trace=MemoryTraceEmitter())
    r = quick_run("flexmap", input_mb=512.0, obs=obs)
    events = obs.trace.events
    kinds = {e["ev"] for e in events}
    assert {"run_meta", "job_start", "map_launch", "map_complete",
            "task_bind", "ips", "heartbeat", "reduce_launch",
            "reduce_complete", "job_end"} <= kinds
    # Trace agrees with the job trace.
    binds = [e for e in events if e["ev"] == "task_bind"]
    assert len(binds) == len(r.trace.maps(include_killed=True)) - sum(
        1 for rec in r.trace.records if rec.kind == "map" and rec.speculative
    )
    end = next(e for e in events if e["ev"] == "job_end")
    assert end["jct"] == pytest.approx(r.jct, abs=1e-3)
    # Metrics snapshot rode along on the RunResult.
    counters = r.metrics["counters"]
    assert counters["am.maps_launched"] == len(r.trace.maps(include_killed=True))
    assert counters["am.heartbeat_rounds"] > 0
    assert counters["monitor.samples"] > 0
    assert r.metrics["histograms"]["flexmap.task_size_bus"]["count"] == len(binds)
    # Every event is timestamped and typed.
    assert all("t" in e and "ev" in e for e in events)


def test_sizing_events_carry_before_after_and_decision():
    obs = Observability(trace=MemoryTraceEmitter())
    quick_run("flexmap", speeds=(1.0, 1.0, 4.0), input_mb=1024.0, obs=obs)
    sizings = [e for e in obs.trace.events if e["ev"] == "sizing"]
    assert sizings, "expected at least one vertical-scaling decision"
    for e in sizings:
        assert e["decision"] in ("fast", "linear", "freeze", "frozen")
        if e["decision"] == "fast":
            assert e["s_i_after"] == pytest.approx(2 * e["s_i_before"])
        assert 0.0 <= e["productivity"] <= 1.0


def test_stock_run_emits_dispatch_metrics():
    obs = Observability(trace=MemoryTraceEmitter())
    r = quick_run("hadoop-64", input_mb=512.0, obs=obs)
    counters = r.metrics["counters"]
    dispatched = counters.get("stock.local_dispatch", 0) + counters.get(
        "stock.remote_dispatch", 0
    )
    # Every non-speculative map came through one of the two dispatch paths.
    originals = [rec for rec in r.trace.maps(include_killed=True) if not rec.speculative]
    assert dispatched == len(originals)


def test_stock_remote_fallback_waits_out_the_locality_delay():
    # Replication 1 and one fast node: the fast node runs out of local
    # splits and, after the delay, reads the slow nodes' blocks remotely.
    obs = Observability(trace=MemoryTraceEmitter())
    r = quick_run("hadoop-64", speeds=(1.0, 1.0, 4.0), input_mb=1024.0,
                  replication=1, obs=obs)
    fallbacks = [e for e in obs.trace.events if e["ev"] == "remote_fallback"]
    assert fallbacks
    assert all(e["waited_s"] >= stock.LOCALITY_DELAY_S for e in fallbacks)
    assert r.metrics["counters"]["stock.remote_dispatch"] == len(fallbacks)


def test_disabled_obs_changes_nothing():
    """Runs with and without observability must be bit-identical."""
    base = quick_run("flexmap", input_mb=512.0)
    obs = Observability(trace=MemoryTraceEmitter())
    observed = quick_run("flexmap", input_mb=512.0, obs=obs)
    assert base.jct == observed.jct
    assert base.efficiency == observed.efficiency
    assert len(base.trace.records) == len(observed.trace.records)


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------
def test_summarize_trace_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    obs = Observability.for_files(trace_path=path)
    quick_run("flexmap", speeds=(1.0, 2.0), input_mb=512.0, obs=obs)
    obs.close()
    text = summarize_trace(path)
    assert "per-node sizing timeline" in text
    assert "t00" in text and "t01" in text
    assert "s_i" in text and "ips" in text and "productivity" in text


def test_summarize_empty_and_nonsizing_traces():
    assert summarize_trace([]) == "(empty trace)"
    text = summarize_trace([{"ev": "job_start", "t": 0.0, "job": "x", "engine": "e"}])
    assert "no per-node sizing events" in text


def test_summarize_service_trace_shows_every_job():
    golden = Path(__file__).parent / "data" / "golden_serve_closed_loop.jsonl"
    events = read_trace(golden)
    ends = [e for e in events if e["ev"] == "job_end"]
    lines = summarize_trace(golden).splitlines()
    job_lines = [line for line in lines if line.startswith("job_end: ")]
    assert len(job_lines) == len(ends) == 4
    for line, end in zip(job_lines, ends):
        assert f"t={end['t']:.1f}s jct={end['jct']:.1f}s" in line
    assert "(each node's series combine the events of all 4 jobs)" in lines
    # A single-job trace carries no such note.
    single = Path(__file__).parent / "data" / "golden_single_flexmap.jsonl"
    assert "combine the events" not in summarize_trace(single)


def test_node_series_extraction():
    events = [
        {"ev": "task_bind", "t": 0.0, "node": "a", "n_bus": 1, "s_i_mb": 8.0},
        {"ev": "sizing", "t": 5.0, "node": "a", "s_i_before": 8.0,
         "s_i_after": 16.0, "decision": "fast"},
        {"ev": "task_bind", "t": 6.0, "node": "a", "n_bus": 2, "s_i_mb": 16.0},
        {"ev": "map_complete", "t": 7.0, "node": "a", "productivity": 0.5},
        {"ev": "ips", "t": 7.0, "node": "a", "smoothed": 2.0},
    ]
    series = node_series(events)
    assert series["a"]["task_bus"] == [1.0, 2.0]
    assert series["a"]["s_i_mb"] == [8.0, 16.0]
    assert series["a"]["productivity"] == [0.5]
    assert series["a"]["ips"] == [2.0]
    assert series["a"]["decisions"]["fast"] == 1
