"""The offer path's shortcuts equal their from-scratch definitions.

Every container offer reads the speculator's fresh-copy estimate, the
SpeedMonitor's per-node speeds, FlexMap's tail-cap capacity sum and the
RM's live-app count; each test pins one of these to the full recomputation
it replaces.  The
ResourceManager closes an AM for the rest of an offer round once its
decline cannot depend on the node; the closure tests pin that a closed AM
is skipped, that it is offered again in the next round, that node-dependent
declines leave it open, and that grants and traces equal the unclosed loop
the armed RM still walks.  Armed, each shortcut is checked in O(1) at its
read, and a seeded stale cache (recompiled from the source with its
refresh condition cut short) must be caught; a declined offer reads the
AM's pending map work at most once.
"""

import inspect
import math
import random
import textwrap
from types import MappingProxyType, SimpleNamespace

import pytest

from repro.check import ScenarioConfig, invariants, run_scenario
from repro.check.harness import build_failures, run_config
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.cluster.failures import FailureSchedule
from repro.core import speed_monitor
from repro.core.speed_monitor import SpeedMonitor
from repro.engines import driver, run_job, skewtune, speculation
from repro.engines.base import ApplicationMaster, MapAssignment, TraceRecorder
from repro.engines.flexmap import FlexMapAM
from repro.engines.registry import EngineSpec, resolve_engine
from repro.engines.speculation import SpeculationManager, fresh_copy_estimate_from_records
from repro.engines.skewtune import SkewTuneAM
from repro.engines.stock import StockHadoopAM
from repro.mapreduce.split import InputSplit
from repro.multijob.arrivals import JobRequest, TraceArrivals
from repro.multijob.policies import CapacityPolicy
from repro.multijob.service import ClusterService
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.trace import TaskRecord
from repro.workloads.puma import puma
from repro.yarn.container import Container
from repro.yarn.resource_manager import ResourceManager
from tests.conftest import OfferSink, make_cluster, tiny_job


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
    manager = SpeculationManager(am)
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


def _mutated(func, old, new):
    """``func`` recompiled from its source with ``old`` replaced by ``new``:
    a seeded bug in the code under test."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} not in {func.__qualname__}"
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


#: The speculation-rescue scenario: a crawling node forces straggler scans
#: both before and after the first completions of each kind.
SPECULATING = ScenarioConfig(
    seed=5, engine="hadoop-64", speeds=(2.0, 2.0, 0.25), slots=(2, 2, 2),
    input_mb=768.0, reducers=2, shuffle_ratio=0.5,
)


def test_a_fresh_copy_cache_that_never_refreshes_is_caught(monkeypatch):
    assert run_scenario(SPECULATING).report.ok
    stale = _mutated(
        SpeculationManager._fresh_copy_estimate_s,
        "if cached is None or cached[0] != len(runtimes):",
        "if cached is None:",
    )
    monkeypatch.setattr(SpeculationManager, "_fresh_copy_estimate_s", stale)
    with pytest.raises(InvariantViolation) as info:
        run_scenario(SPECULATING)
    assert info.value.rule == "incremental-state"
    assert "map fresh-copy estimate: cached (" in info.value.message


def test_the_whole_trace_scan_runs_once_per_kind_per_am_not_per_scan(monkeypatch):
    scans = []
    reference = invariants.fresh_copy_estimate_from_records

    def counted(records, kind):
        scans.append(kind)
        return reference(records, kind)

    monkeypatch.setattr(invariants, "fresh_copy_estimate_from_records", counted)
    monkeypatch.setattr(speculation, "fresh_copy_estimate_from_records", counted)
    estimates = []
    estimate = SpeculationManager._fresh_copy_estimate_s

    def logged(manager, kind):
        estimates.append(kind)
        return estimate(manager, kind)

    monkeypatch.setattr(SpeculationManager, "_fresh_copy_estimate_s", logged)
    for config in (SPECULATING, ScenarioConfig(n_jobs=3, engine="hadoop-64")):
        scans.clear()
        estimates.clear()
        report = run_scenario(config).report
        assert report.ok
        assert scans == ["map", "reduce"] * report.ams_attached
        assert len(estimates) > len(scans)


def test_a_record_that_bypasses_the_recorder_is_caught_at_job_end():
    class _SneaksARecord(InvariantChecker):
        def attach_am(self, am):
            super().attach_am(am)
            am.trace.records.append(_record("map", 0.0, 5.0))

    config = ScenarioConfig(engine="hadoop-64")
    with pytest.raises(InvariantViolation) as info:
        run_config(config, failures=build_failures(config), check=_SneaksARecord())
    assert info.value.rule == "incremental-state"
    assert "map fresh-copy ledger" in info.value.message


# ----------------------------------------------------------------------
# SpeedMonitor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("monitor_cls", [SpeedMonitor])
def test_speed_monitor_reads_equal_recomputation_after_eviction(monitor_cls, monkeypatch):
    window = 3
    monkeypatch.setattr(speed_monitor, "WINDOW", window)
    monitor = monitor_cls()
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

    for _ in range(59):
        if rng.random() < 0.7:
            report = {
                n: [rng.choice([0.0, rng.uniform(0.1, 50.0)]) for _ in range(rng.randint(0, 3))]
                for n in rng.sample(nodes, rng.randint(1, 3))
            }
            monitor.report_round(report)
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
    monitor = SpeedMonitor()
    monitor.report_completion("a", 4.0)
    monitor.check = InvariantChecker()
    monitor._speeds["a"] = 5.0  # a cache that missed an update
    with pytest.raises(InvariantViolation) as info:
        monitor.get_speed("a")
    assert info.value.rule == "incremental-state"
    assert info.value.message == "speed of a: cached 5.0 != recomputed 4.0"


# ----------------------------------------------------------------------
# round closure
# ----------------------------------------------------------------------
def _bed_with(engine, job, check=None, speeds=(2.0, 2.0, 0.2), replication=3):
    """A submitted AM of ``engine`` on a fresh testbed, before any event."""
    spec = resolve_engine(engine)
    bed = driver.Testbed(
        lambda: make_cluster(speeds=speeds, slots=2),
        seed=5, replication=replication, check=check,
    )
    bed.stage(job, spec.block_size_mb, job)
    am = spec.build(bed.sim, bed.cluster, bed.rm, bed.namenode, job, bed.streams)
    am.submit()
    return bed, am


def _step_until(bed, condition):
    while not condition():
        assert bed.sim.step(), "simulation ended before the condition held"


def _free_nodes(bed):
    return [n for n in bed.cluster.nodes if n.alive and n.free_slots > 0]


def _never_old_enough(monkeypatch):
    """Keep every scan a decline, so probing a scan cannot launch anything."""
    monkeypatch.setattr(speculation, "MIN_AGE_S", 1e9)
    monkeypatch.setattr(skewtune, "MIN_AGE_S", 1e9)


def _idle_in_last_map_wave(am_class, check=None):
    """An AM in its last map wave whose straggler scan left free slots on
    at least two nodes."""
    spec = EngineSpec("closure-test", 64.0, am_class)
    bed, am = _bed_with(spec, tiny_job(input_mb=768.0, reducers=0), check=check)
    _step_until(
        bed,
        lambda: am.index.unprocessed == 0
        and len(am.maps.running) >= 2
        and len(_free_nodes(bed)) >= 2,
    )
    return bed, am


def _idle_with_reducers_running():
    """A stock AM whose reducers all run, with free slots on two nodes."""
    bed, am = _bed_with("hadoop-64", tiny_job(input_mb=512.0, reducers=3, shuffle=0.5))
    reduces = am.reduces
    _step_until(
        bed,
        lambda: reduces.started
        and reduces.pending == 0
        and reduces.running
        and len(_free_nodes(bed)) >= 2,
    )
    return bed, am


def _offer_round(rm, *sinks):
    """Run ``rm``'s offer round now; returns, per sink, the offers it got as
    ``(node id, re-offer, accepted)`` in order."""
    logs = []
    for sink in sinks:
        log = []
        inner = sink.on_container

        def on_container(container, inner=inner, log=log):
            accepted = inner(container)
            log.append((container.node_id, container.reoffer, accepted))
            return accepted

        sink.on_container = on_container
        logs.append(log)
    try:
        rm._offer_round()
    finally:
        for sink in sinks:
            del sink.on_container
    return logs


#: One AM per node-blind scan, each left with only that scan: the LATE
#: map scan, SkewTune's mitigation scan and the LATE reduce-backup scan.
ONLY_A_SCAN_LEFT = {
    "map-backup": lambda: _idle_in_last_map_wave(StockHadoopAM),
    "skewtune": lambda: _idle_in_last_map_wave(SkewTuneAM),
    "reduce-backup": _idle_with_reducers_running,
}


@pytest.mark.parametrize("scan", sorted(ONLY_A_SCAN_LEFT))
def test_a_closed_am_gets_no_further_offer_in_the_round(scan, monkeypatch):
    _never_old_enough(monkeypatch)
    bed, am = ONLY_A_SCAN_LEFT[scan]()
    [log] = _offer_round(bed.rm, am)
    # The scan ignores the node: one offer, then the round stops walking
    # the other free nodes.
    assert len(log) == 1
    assert log[0][1:] == (False, False)
    assert am.declines_every_node()


def test_an_armed_rm_reoffers_every_skipped_slot(monkeypatch):
    _never_old_enough(monkeypatch)
    checker = InvariantChecker()
    bed, am = _idle_in_last_map_wave(StockHadoopAM, check=checker)
    checks = checker.checks.get("incremental-state", 0)
    free = [n.node_id for n in _free_nodes(bed)]
    [log] = _offer_round(bed.rm, am)
    # The unclosed walk: one offer per free node, all but the first a
    # re-offer of the closed round, each declined and checked.
    assert sorted(node for node, _, _ in log) == sorted(free)
    assert [reoffer for _, reoffer, _ in log] == [False] + [True] * (len(free) - 1)
    assert not any(accepted for _, _, accepted in log)
    assert checker.checks["incremental-state"] - checks >= len(free) - 1


def test_a_closed_am_is_offered_again_after_its_own_kill_or_launch(monkeypatch):
    _never_old_enough(monkeypatch)
    bed, am = _idle_in_last_map_wave(StockHadoopAM)
    now = bed.sim.now
    [log] = _offer_round(bed.rm, am)
    assert len(log) == 1

    # Its own kill at the same instant: the next round offers it again.
    am.maps.kill(next(iter(am.maps.running)))
    [log] = _offer_round(bed.rm, am)
    assert len(log) == 1

    # Its own launch at the same instant: offered again too.
    original, assignment = next(iter(am.maps.running.items()))
    container = Container(_free_nodes(bed)[0], am=am)
    am.maps.launch(
        container,
        MapAssignment(
            task_id=original.task_id,
            split=InputSplit.for_node(assignment.split.blocks, container.node_id),
            speculative=True,
        ),
    )
    [log] = _offer_round(bed.rm, am)
    assert len(log) == 1
    assert bed.sim.now == now


def test_a_delay_scheduling_decline_leaves_the_stock_am_open():
    # One replica per block on four nodes: some nodes hold no local block.
    bed, am = _bed_with(
        "hadoop-64", tiny_job(input_mb=128.0, reducers=0),
        speeds=(1.0, 1.0, 1.0, 1.0), replication=1,
    )
    local = {
        n.node_id for n in bed.cluster.nodes if am.index.min_local_block(n.node_id) is not None
    }
    [log] = _offer_round(bed.rm, am)
    node, _, accepted = log[0]
    assert node not in local and not accepted  # waits for a local block
    # The wait depends on the node, so the AM stayed open: a later node
    # holding a local block was offered the slot and took it in this round.
    taken = [node for node, _, accepted in log if accepted]
    assert taken and set(taken) <= local


class _Tenant(OfferSink):
    """Takes up to ``budget`` offers; its declines are node-blind if
    ``node_blind``."""

    def __init__(self, rm, budget, node_blind=False):
        self.rm = rm
        self.budget = budget
        self.node_blind = node_blind

    def on_container(self, container):
        if self.budget == 0:
            return False
        self.budget -= 1
        self.rm.occupy(container)
        return True

    def declines_every_node(self):
        return self.node_blind


class _PlainSink(OfferSink):
    """An offer sink that declines all, keeping ``OfferSink``'s
    ``declines_every_node`` (never node-blind)."""

    def on_container(self, container):
        return False


def test_a_sink_without_the_method_keeps_one_offer_per_free_node():
    rm = ResourceManager(Simulator(), make_cluster())
    plain, blind = _PlainSink(), _Tenant(rm, budget=0, node_blind=True)
    rm.register(plain)
    rm.register(blind)
    plain_log, blind_log = _offer_round(rm, plain, blind)
    assert [node for node, _, _ in plain_log] == ["t00", "t01", "t02"]
    assert [node for node, _, _ in blind_log] == ["t00"]


@pytest.mark.parametrize("node_blind", [True, False])
def test_capacity_policy_ranks_closed_ams_with_the_rest(node_blind):
    cluster = make_cluster(speeds=(1.0,) * 5)  # 10 slots
    policy = CapacityPolicy({"prod": 3.0, "batch": 1.0})
    rm = ResourceManager(Simulator(), cluster, scheduler=policy)
    done = _Tenant(rm, budget=0, node_blind=node_blind)  # prod, holds 4 slots
    batch = _Tenant(rm, budget=99)
    prod = _Tenant(rm, budget=99)
    rm.register(done, queue="prod")
    rm.register(batch, queue="batch")
    rm.register(prod, queue="prod")
    for tenant, nodes in ((done, (0, 0, 1, 1)), (batch, (2, 2))):
        for i in nodes:
            rm.occupy(Container(cluster.nodes[i], am=tenant))
    done_log, batch_log, prod_log = _offer_round(rm, done, batch, prod)
    # The closed tenant's 4 slots still count toward prod's usage: after
    # two grants prod is at 6/3, level with batch's 2/1, and batch wins
    # the tie on its registration index.
    assert len(done_log) == (1 if node_blind else 4)
    assert [node for node, _, _ in prod_log] == ["t03", "t03", "t04"]
    assert [node for node, _, _ in batch_log] == ["t04"]


def _grant_log(monkeypatch, run):
    """``run()``'s grants as ``(time, job, node)`` in grant order."""
    grants = []
    occupy = ResourceManager.occupy

    def logged(rm, container):
        grants.append((rm.sim.now, container.am.job.name, container.node_id))
        occupy(rm, container)

    monkeypatch.setattr(ResourceManager, "occupy", logged)
    result = run()
    monkeypatch.setattr(ResourceManager, "occupy", occupy)
    return grants, result


def _capacity_service():
    wc = puma("WC")
    arrivals = TraceArrivals([
        JobRequest(0.0, wc, "flexmap", input_mb=512.0, queue="prod"),
        JobRequest(0.0, wc, "hadoop-64", input_mb=512.0, queue="batch"),
        JobRequest(20.0, wc, "skewtune-64", input_mb=512.0, queue="batch"),
        JobRequest(40.0, wc, "flexmap", input_mb=256.0, queue="prod"),
    ])
    return ClusterService(
        lambda: make_cluster(speeds=(2.0, 1.0, 0.25, 1.0), slots=2),
        arrivals,
        policy=CapacityPolicy({"prod": 3.0, "batch": 1.0}),
        seed=4,
    )


def _records(trace):
    return [
        (r.task_id, r.node, r.start, r.end, r.killed, r.speculative, r.size_mb)
        for r in trace.records
    ]


def test_capacity_grants_equal_the_unclosed_order(monkeypatch):
    def run():
        result = _capacity_service().run(compute_slowdown=False)
        return [(o.job_id, _records(o.trace)) for o in result.outcomes]

    closed_grants, closed = _grant_log(monkeypatch, run)
    monkeypatch.setattr(ApplicationMaster, "declines_every_node", lambda am: False)
    unclosed_grants, unclosed = _grant_log(monkeypatch, run)
    assert closed_grants == unclosed_grants
    assert closed == unclosed
    assert len({job for _, job, _ in closed_grants}) == 4


@pytest.mark.parametrize("engine", ["hadoop-64", "flexmap", "skewtune-64"])
def test_checked_and_unchecked_runs_match(engine, monkeypatch):
    reoffers = []
    on_closed_offer = InvariantChecker.on_closed_offer

    def counted(checker, container, accepted):
        reoffers.append(accepted)
        on_closed_offer(checker, container, accepted)

    monkeypatch.setattr(InvariantChecker, "on_closed_offer", counted)

    def run(check):
        obs = Observability()
        result = run_job(
            lambda: make_cluster(speeds=(2.0, 1.0, 0.25), slots=2),
            tiny_job(input_mb=1024.0, reducers=4, shuffle=0.5),
            engine,
            seed=3,
            obs=obs,
            check=check,
        )
        offers = obs.metrics.counter("am.container_offers").value
        return _records(result.trace), offers

    checker = InvariantChecker()
    checked = run(checker)
    assert checker.finalize().ok
    assert run(None) == checked  # re-offers are not counted as offers
    assert reoffers and not any(reoffers)
    records, _ = checked
    assert any(killed for *_, killed, _, _ in records)  # a backup race was lost


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
        bed.rm.register(OfferSink())
    assert bed.rm.num_active_apps == 4
    assert am.monitor.version == version
    shared = {n: am._tail_cap(n) for n in nodes}
    assert shared == {n: _uncached_tail_cap(am, n) for n in nodes}
    assert shared != caps


def test_tail_cap_reference_mode_catches_a_stale_capacity():
    job = tiny_job(input_mb=2048.0, reducers=0)
    checker = InvariantChecker()
    bed, am = _bed_with("flexmap", job, check=checker, speeds=(1.0, 1.0, 2.0))
    _step_until(bed, lambda: am.monitor.version > 0)
    node = bed.cluster.nodes[0].node_id
    before = checker.checks["incremental-state"]
    am._tail_cap(node)  # a rebuild, compared once with the checked reads
    assert checker.checks["incremental-state"] > before
    monitor = am.monitor
    # A view whose speeds are all scaled, so the rebuilt sum is too, while
    # ``get_speed`` and the version still agree with each other.
    monitor.speeds = MappingProxyType({n: 2.0 * s for n, s in monitor.speeds.items()})
    monitor.report_completion(node, 3.0)
    with pytest.raises(InvariantViolation) as info:
        am._tail_cap(node)
    assert info.value.rule == "incremental-state"
    assert "tail-cap capacity" in str(info.value)


def test_a_tail_cap_rebuilt_only_when_empty_is_caught(monkeypatch):
    config = ScenarioConfig(engine="flexmap")
    assert run_scenario(config).report.ok
    stale = _mutated(
        FlexMapAM._tail_cap,
        "if self._capacity is None or self._capacity[0] != monitor.version:",
        "if self._capacity is None:",
    )
    monkeypatch.setattr(FlexMapAM, "_tail_cap", stale)
    with pytest.raises(InvariantViolation) as info:
        run_scenario(config)
    assert info.value.rule == "incremental-state"
    assert "tail-cap capacity version" in info.value.message


# ----------------------------------------------------------------------
# decline path
# ----------------------------------------------------------------------
#: State -> (maps pending, maps running, reduces started, reducers pending,
#: job done), and what a declined offer in that state answers:
#: (the driver ``on_container`` routes to, ``declines_every_node``).
DECLINE_STATES = {
    "pending": ((True, False, False, 0, False), ("maps", False)),
    "pending-and-running": ((True, True, False, 0, False), ("maps", False)),
    "running-only": ((False, True, False, 0, False), ("maps", True)),
    "reduces-not-started": ((False, False, False, 0, False), ("reduces", True)),
    "reduces-pending": ((False, False, True, 2, False), ("reduces", False)),
    "reduces-running-only": ((False, False, True, 0, False), ("reduces", True)),
    "done": ((False, False, True, 0, True), (None, True)),
}


@pytest.mark.parametrize("state", sorted(DECLINE_STATES))
def test_a_declined_offer_reads_pending_maps_at_most_once(state, monkeypatch):
    (pending, running, started, reducers, done), (routed, blind) = DECLINE_STATES[state]
    bed, am = _bed_with("hadoop-64", tiny_job())
    reads = []
    offers = []
    monkeypatch.setattr(am, "maps_pending", lambda: reads.append(1) or pending)
    monkeypatch.setattr(am.maps, "offer", lambda c: offers.append("maps") or False)
    monkeypatch.setattr(am.reduces, "offer", lambda c: offers.append("reduces") or False)
    am.maps.running = {object(): None} if running else {}
    am.reduces.started, am.reduces.pending, am.job_done = started, reducers, done

    assert am.on_container(Container(bed.cluster.nodes[0], am=am)) is False
    assert offers == ([routed] if routed else [])
    assert len(reads) <= 1
    reads.clear()
    assert am.declines_every_node() is blind
    assert len(reads) <= 1
    # The answers the three-read formulation gave.
    maps_done = not pending and not running
    assert routed == (None if done else "reduces" if maps_done else "maps")
    assert blind == (
        done or (not pending if not maps_done else not (started and reducers > 0))
    )


@pytest.mark.parametrize(
    "engine, queued",
    [("hadoop-64", False), ("hadoop-nospec-64", False), ("flexmap", False),
     ("skewtune-64", False), ("skewtune-64", True)],
)
@pytest.mark.parametrize("unprocessed", [0, 3])
@pytest.mark.parametrize("running", [False, True])
def test_the_last_wave_rule_reads_the_index_once(
    engine, queued, unprocessed, running, monkeypatch
):
    """A heartbeat outside the reduce phase requests offers exactly when
    the index is empty, the map phase is not done and the engine backs up
    stragglers, reading ``index.unprocessed`` at most once (``on_tick``'s
    own delay-scheduling read is left out).  Only SkewTune queues map work
    outside the index."""
    bed, am = _bed_with(engine, tiny_job())
    reads, requests = [], []
    monkeypatch.setattr(
        type(am.index), "unprocessed", property(lambda s: reads.append(1) or unprocessed)
    )
    monkeypatch.setattr(am, "on_tick", lambda round_no: None)
    monkeypatch.setattr(bed.rm, "request_offers", lambda: requests.append(1))
    am.maps.running = {object(): None} if running else {}
    if queued:
        am.mitigation_queue = [object()]

    am._on_heartbeat(1)
    assert len(reads) <= 1
    # The rule as it read before: the index is empty and the map phase is
    # not done (nothing pending and nothing running).
    pending = unprocessed > 0 or queued
    last_wave = unprocessed == 0 and not (not pending and not running)
    assert len(requests) == int(last_wave and am._backs_up_stragglers())


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("running", [False, True])
@pytest.mark.parametrize("started", [False, True])
def test_a_map_phase_end_check_reads_pending_maps_once(
    pending, running, started, monkeypatch
):
    bed, am = _bed_with("hadoop-64", tiny_job())
    reads, calls = [], []
    monkeypatch.setattr(am, "maps_pending", lambda: reads.append(1) or pending)
    monkeypatch.setattr(bed.rm, "request_offers", lambda: calls.append("offers"))
    monkeypatch.setattr(am.recorder, "close_map_phase", lambda: calls.append("close"))
    monkeypatch.setattr(am.reduces, "begin", lambda: calls.append("reduces"))
    am.maps.running = {object(): None} if running else {}
    am.reduces.started = started

    am.maps.check_phase_end()
    assert len(reads) == 1
    # The answers of the former ``not maps.done() or reduces.started``,
    # where maps were done once nothing was pending or running.
    if (pending or running) or started:
        assert calls == (["offers"] if pending else [])
    else:
        assert calls == ["close", "reduces"]


# ----------------------------------------------------------------------
# live-app count
# ----------------------------------------------------------------------
def test_live_app_count_reference_mode_catches_a_finished_app_left_registered():
    rm = ResourceManager(Simulator(), make_cluster())
    finished, live = OfferSink(), OfferSink()
    rm.register(finished)
    rm.register(live)
    rm.audit = checker = InvariantChecker()
    assert rm.num_active_apps == 2
    assert checker.checks["incremental-state"] == 1
    finished.job_done = True  # but never unregistered
    with pytest.raises(InvariantViolation) as info:
        rm.num_active_apps
    assert info.value.rule == "incremental-state"
    assert "live apps: cached 2 != recomputed 1" in info.value.message
