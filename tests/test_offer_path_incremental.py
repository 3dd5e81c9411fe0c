"""The offer path's cached state equals its from-scratch definition.

Every container offer reads the speculator's fresh-copy estimate, the
SpeedMonitor's per-node speeds, FlexMap's tail-cap capacity sum and, for a
repeat offer at one instant, a remembered straggler-scan decline.  Each
test pins one of these caches to the full recomputation it replaces, and
checks that a remembered decline is forgotten as soon as an attempt starts
or ends.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.cluster.failures import FailureSchedule
from repro.core.speed_monitor import SpeedMonitor
from repro.engines import driver, run_job
from repro.engines.base import AMConfig, MapAssignment, TraceRecorder
from repro.engines.registry import EngineSpec, resolve_engine
from repro.engines.speculation import (
    SpeculationConfig,
    SpeculationManager,
    fresh_copy_estimate_from_records,
)
from repro.engines.skewtune import SkewTuneAM, SkewTuneConfig
from repro.engines.stock import StockHadoopAM
from repro.mapreduce.split import InputSplit
from repro.multijob.service import SharedSpeedMonitor
from repro.sim.trace import TaskRecord
from repro.yarn.container import Container
from tests.conftest import make_cluster, tiny_job


# ----------------------------------------------------------------------
# fresh-copy estimate
# ----------------------------------------------------------------------
def _full_scan(records, kind):
    """The fresh-copy estimate as a scan of the whole trace computed it."""
    done = [r for r in records if r.kind == kind and not r.killed and r.runtime > 0]
    if not done:
        return math.inf
    return sum(r.runtime for r in done) / len(done)


def _record(kind, start, end, killed=False, processed=None):
    record = TaskRecord(
        task_id=f"{kind[0]}{start}", kind=kind, node="t00", size_mb=8.0, start=start
    )
    record.end = end
    record.killed = killed
    record.processed_mb = 8.0 if processed is None else processed
    return record


def test_fresh_copy_estimate_equals_full_scan_record_by_record():
    am = SimpleNamespace(job=SimpleNamespace(name="j"), obs=None, cluster=make_cluster())
    am.recorder = TraceRecorder(am)
    manager = SpeculationManager(am, SpeculationConfig())
    records = [
        _record("map", 0.0, 1e16),  # huge, so summation order matters
        _record("map", 0.0, 7.0, killed=True),  # lost a backup race
        _record("map", 3.0, 3.0),  # zero runtime
        _record("map", 0.0, 0.1, processed=2.0),  # SkewTune-stopped, committed
        _record("reduce", 5.0, 9.5),
        _record("map", 1.0, 2.0),
        _record("reduce", 2.0, 2.0),
        _record("map", 0.0, 0.3),
    ]
    for kind in ("map", "reduce"):
        assert manager._fresh_copy_estimate_s(kind) == math.inf
    for record in records:
        am.recorder.add(record)
        for kind in ("map", "reduce"):
            expected = _full_scan(am.recorder.trace.records, kind)
            assert manager._fresh_copy_estimate_s(kind) == expected
            assert fresh_copy_estimate_from_records(am.recorder.trace.records, kind) == expected
    assert am.recorder.completed_runtimes["map"] == [1e16, 0.1, 1.0, 0.3]


def test_fresh_copy_estimate_after_a_skewtune_run_with_a_crash():
    result = run_job(
        lambda: make_cluster(speeds=(2.0, 2.0, 0.2), slots=2),
        tiny_job(input_mb=768.0, reducers=2, shuffle=0.5),
        "skewtune-64",
        seed=5,
        failures=FailureSchedule.single(40.0, "t00"),
    )
    records = result.trace.records
    assert any(r.killed for r in records)
    assert any(r.kind == "map" and not r.killed and r.processed_mb < r.size_mb for r in records)
    for kind in ("map", "reduce"):
        assert result.am.speculation._fresh_copy_estimate_s(kind) == _full_scan(records, kind)


# ----------------------------------------------------------------------
# SpeedMonitor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("monitor_cls", [SpeedMonitor, SharedSpeedMonitor])
def test_speed_monitor_reads_equal_recomputation_after_eviction(monitor_cls):
    window = 3
    monitor = monitor_cls(window=window)
    checker = InvariantChecker()
    monitor.check = checker  # reference mode: every cached read is compared
    pushed: dict[str, list[float]] = {}  # every sample, never evicted
    rng = random.Random(11)
    nodes = ["a", "b", "c"]

    def expected_speed(node):
        window_samples = pushed.get(node, [])[-window:]
        if not window_samples:
            return None
        return sum(window_samples) / len(window_samples)

    for round_no in range(1, 60):
        if rng.random() < 0.7:
            report = {
                n: [rng.choice([0.0, rng.uniform(0.1, 50.0)]) for _ in range(rng.randint(0, 3))]
                for n in rng.sample(nodes, rng.randint(1, 3))
            }
            monitor.report_round(round_no, report)
            for n, values in report.items():
                productive = [v for v in values if v > 0]
                if productive:
                    pushed.setdefault(n, []).append(sum(productive) / len(productive))
        else:
            n, ips = rng.choice(nodes), rng.choice([0.0, rng.uniform(0.1, 50.0)])
            monitor.report_completion(n, ips)
            if ips > 0:
                pushed.setdefault(n, []).append(ips)
        speeds = {n: expected_speed(n) for n in nodes}
        known = [s for s in speeds.values() if s is not None]
        slowest = min(known) if known else None
        assert monitor.slowest_speed() == slowest
        for n in nodes:
            assert monitor.get_speed(n) == speeds[n]
            mine = speeds[n]
            relative = 1.0 if mine is None or slowest is None else max(1.0, mine / slowest)
            assert monitor.relative_speed(n) == relative
    assert max(len(v) for v in pushed.values()) > window  # eviction happened
    assert checker.checks["incremental-state"] > 0


def test_speed_monitor_reference_mode_catches_a_stale_speed():
    monitor = SpeedMonitor(window=2)
    monitor.report_completion("a", 4.0)
    monitor.check = InvariantChecker()
    monitor._speeds["a"] = 5.0  # a cache that missed an update
    with pytest.raises(InvariantViolation) as info:
        monitor.get_speed("a")
    assert info.value.rule == "incremental-state"


# ----------------------------------------------------------------------
# decline memo
# ----------------------------------------------------------------------
def _bed_with(engine, job, check=None, speeds=(2.0, 2.0, 0.2)):
    """A submitted AM of ``engine`` on a fresh testbed, before any event."""
    spec = resolve_engine(engine)
    bed = driver.Testbed(lambda: make_cluster(speeds=speeds, slots=2), seed=5, check=check)
    bed.stage(job, spec.block_size_mb, job)
    config = AMConfig(block_size_mb=spec.block_size_mb)
    am = spec.build(bed.sim, bed.cluster, bed.rm, bed.namenode, job, bed.streams, config)
    am.submit()
    return bed, am


def _step_until(bed, condition):
    while not condition():
        assert bed.sim.step(), "simulation ended before the condition held"


def _scan_counter(obj, name):
    """Wrap the scan ``obj.name`` on the instance; returns ``scans(offer)``,
    the number of scans one call of ``offer`` runs."""
    inner = getattr(obj, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    setattr(obj, name, counted)

    def scans(offer):
        before = calls[0]
        offer()
        return calls[0] - before

    return scans


def _free_slot(bed):
    return any(n.alive and n.free_slots > 0 for n in bed.cluster.nodes)


def _idle_in_last_map_wave(am_class, check=None, **kwargs):
    """An AM in its last map wave with a slot its straggler scan left
    idle; ``kwargs`` configure the AM class."""
    spec = EngineSpec("memo-test", 64.0, am_class, kwargs)
    bed, am = _bed_with(spec, tiny_job(input_mb=768.0, reducers=0), check=check)
    _step_until(
        bed,
        lambda: am.index.unprocessed == 0 and len(am.maps.running) >= 2 and _free_slot(bed),
    )
    node = next(n for n in bed.cluster.nodes if n.alive and n.free_slots > 0)
    return bed, am, Container(node, am=am)


#: Keeps every scan a decline, so probing a scan cannot launch anything.
NEVER_OLD_ENOUGH = 1e9


def test_launch_and_completion_at_one_instant_invalidate_the_map_memo():
    bed, am, container = _idle_in_last_map_wave(
        StockHadoopAM, speculation=SpeculationConfig(min_age_s=NEVER_OLD_ENOUGH)
    )
    manager = am.speculation
    scans = _scan_counter(manager._declines, "scan")

    def offer():
        assert manager.select_speculative(container) is None

    offer()
    assert scans(offer) == 0  # the repeat offer is answered from the memo

    # A launch at the same instant: the next offer rescans.
    original, assignment = next(iter(am.maps.running.items()))
    am.maps.launch(
        container,
        MapAssignment(
            task_id=original.task_id,
            split=InputSplit.for_node(assignment.split.blocks, container.node_id),
            speculative=True,
        ),
    )
    assert scans(offer) == 1
    assert scans(offer) == 0

    # A completion at the same instant: the next offer rescans again.
    now = bed.sim.now
    next(a for a in am.maps.running if not a.record.speculative)._finish()
    assert bed.sim.now == now
    assert scans(offer) == 1
    assert scans(offer) == 0


def test_reduce_memo_is_invalidated_by_a_launch():
    spec = EngineSpec(
        "memo-test", 64.0, StockHadoopAM,
        {"speculation": SpeculationConfig(min_age_s=NEVER_OLD_ENOUGH)},
    )
    bed, am = _bed_with(spec, tiny_job(input_mb=512.0, reducers=3, shuffle=0.5))
    reduces = am.reduces
    _step_until(bed, lambda: reduces.started and reduces.running and _free_slot(bed))
    node = next(n for n in bed.cluster.nodes if n.alive and n.free_slots > 0)
    container = Container(node, am=am)
    scans = _scan_counter(reduces._declines, "scan")

    def offer():
        assert reduces.maybe_speculate(container) is False

    offer()
    assert scans(offer) == 0
    reduces.pending += 1
    reduces.launch(container)
    assert scans(offer) == 1
    assert scans(offer) == 0


def test_skewtune_memo_is_invalidated_by_a_kill():
    bed, am, container = _idle_in_last_map_wave(
        SkewTuneAM, skewtune=SkewTuneConfig(min_age_s=NEVER_OLD_ENOUGH)
    )
    scans = _scan_counter(am._declines, "scan")

    def offer():
        am._try_mitigate(container)
        assert not am.mitigation_queue

    offer()
    assert scans(offer) == 0
    am.maps.kill(next(iter(am.maps.running)))
    assert scans(offer) == 1
    assert scans(offer) == 0


def test_reference_mode_rescans_a_memoised_decline():
    checker = InvariantChecker(strict=False)
    bed, am, container = _idle_in_last_map_wave(
        StockHadoopAM,
        check=checker,
        speculation=SpeculationConfig(min_age_s=NEVER_OLD_ENOUGH),
    )
    manager = am.speculation
    assert manager.select_speculative(container) is None
    # A scan that would now back up a task behind the memo's back.
    straggler = next(iter(am.maps.running))
    manager._declines.scan = lambda: straggler
    assert manager.select_speculative(container) is None
    rules = [v.rule for v in checker.violations]
    assert rules == ["incremental-state"]
    assert "declined from its memo" in checker.violations[0].message


def test_checked_run_with_backup_races_keeps_the_epoch_moving():
    """Losing map and reduce copies are killed mid-race; each kill must
    move the state epoch like every other attempt start and end."""
    checker = InvariantChecker()
    spec = EngineSpec("memo-test", 64.0, StockHadoopAM, {"speculation": SpeculationConfig()})
    result = run_job(
        lambda: make_cluster(speeds=(2.0, 2.0, 0.25), slots=2),
        tiny_job(input_mb=512.0, reducers=4, shuffle=0.5),
        spec,
        seed=2,
        check=checker,
    )
    report = checker.finalize()
    assert report.ok
    killed = {r.kind for r in result.trace.records if r.killed}
    assert killed == {"map", "reduce"}
    assert report.checks["incremental-state"] > 0


# ----------------------------------------------------------------------
# FlexMap tail cap
# ----------------------------------------------------------------------
def _uncached_tail_cap(am, node_id):
    remaining = am.binder.unprocessed_bus
    speeds = {n.node_id: am.monitor.get_speed(n.node_id) or 1.0 for n in am.cluster.nodes}
    total_capacity = sum(speeds[n.node_id] * n.slots for n in am.cluster.nodes)
    total_capacity /= am.rm.num_active_apps
    share = speeds[node_id] / total_capacity if total_capacity > 0 else 1.0
    return max(1, int(math.ceil(remaining * share)))


def test_tail_cap_follows_the_app_count_without_a_new_speed_sample():
    job = tiny_job(input_mb=2048.0, reducers=0)
    bed, am = _bed_with("flexmap", job, speeds=(1.0, 1.0, 2.0))
    _step_until(bed, lambda: am.monitor.version > 0)
    assert am.binder.unprocessed_bus > 0
    nodes = [n.node_id for n in bed.cluster.nodes]
    caps = {n: am._tail_cap(n) for n in nodes}
    assert caps == {n: _uncached_tail_cap(am, n) for n in nodes}

    version = am.monitor.version
    for _ in range(3):  # idle offer sinks raise the live-app count
        bed.rm.register(SimpleNamespace(job_done=False))
    assert bed.rm.num_active_apps == 4
    assert am.monitor.version == version
    shared = {n: am._tail_cap(n) for n in nodes}
    assert shared == {n: _uncached_tail_cap(am, n) for n in nodes}
    assert shared != caps
