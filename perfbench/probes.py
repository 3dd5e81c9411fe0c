"""Per-layer tracing for the benchmark's traced passes.

:class:`LayerTracer` wraps the calls into each layer of the simulator for
the duration of a ``with`` block, the way :mod:`repro.check` arms its
hooks: it swaps a method for a wrapper and puts the original back on exit,
so untraced passes run the unmodified code.  The wrappers sit on the
classes because the drivers build their simulators, ResourceManagers and
AMs inside the call; every instance built during the block is traced.

A wrapped call either opens a *span* (name, start, end, parent, job id,
kept in memory) or only bumps a counter.  A layer's self time is the time
its spans cover minus the time their child spans cover, and ``sim`` is the
rest of the pass, so the self times of all layers add up to the pass.
"""

from __future__ import annotations

import functools
import time

from repro.check.invariants import InvariantChecker
from repro.core.data_provision import DataProvision
from repro.core.late_binding import LateTaskBinder
from repro.core.speed_monitor import SpeedMonitor
from repro.engines.base import ApplicationMaster, ReducePhaseDriver
from repro.engines.flexmap import FlexMapAM
from repro.engines.skewtune import SkewTuneAM
from repro.engines.speculation import SpeculationManager
from repro.engines.stock import StockHadoopAM
from repro.hdfs.locality import LocalityIndex
from repro.mapreduce.attempt import TaskAttempt
from repro.sim.engine import Simulator
from repro.yarn.heartbeat import HeartbeatService
from repro.yarn.resource_manager import ResourceManager

#: Span name -> layer whose self time it counts toward.
SPAN_LAYER = {
    "yarn.offer_round": "yarn",
    "yarn.heartbeat": "yarn",
    "multijob.policy_order": "multijob",
    "engines.on_container": "engines",
    "engines.select_map": "engines",
    "engines.spec_scan": "engines",
    "core.task_size": "core",
    "core.bind": "core",
    "hdfs.take_for_node": "hdfs",
}
LAYERS = ("sim", "yarn", "multijob", "engines", "core", "hdfs")

#: Calls that open a span: (class, method, span name, job-id getter).
SPANS = (
    (ResourceManager, "_offer_round", "yarn.offer_round", None),
    (ResourceManager, "_offer_order", "multijob.policy_order", None),
    (HeartbeatService, "_tick", "yarn.heartbeat", None),
    (ApplicationMaster, "on_container", "engines.on_container", lambda s: s.job.name),
    (StockHadoopAM, "select_map", "engines.select_map", lambda s: s.job.name),
    (SkewTuneAM, "select_map", "engines.select_map", lambda s: s.job.name),
    (FlexMapAM, "select_map", "engines.select_map", lambda s: s.job.name),
    (SpeculationManager, "select_speculative", "engines.spec_scan", lambda s: s.am.job.name),
    (ReducePhaseDriver, "maybe_speculate", "engines.spec_scan", lambda s: s.am.job.name),
    (DataProvision, "task_size_bus", "core.task_size", None),
    (LateTaskBinder, "bind", "core.bind", None),
    (LocalityIndex, "take_for_node", "hdfs.take_for_node", None),
)


class LayerTracer:
    """Spans and counters of one traced pass.

    ``spans`` holds ``(name, start, end, parent index, job id)`` tuples in
    closing order; ``self_s``/``total_s``/``calls`` aggregate them by span
    name.  Counters are plain integers in ``counts``.
    """

    def __init__(self, keep_spans: bool = True) -> None:
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.top_level_s = 0.0
        self.counts: dict[str, int] = {}
        self.sims: list[Simulator] = []
        self.attempts: list[TaskAttempt] = []
        # Open spans: [name, start, child time, own index, parent index, job]
        self._stack: list[list] = []
        self._next_index = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _enter(self, name: str, job) -> None:
        parent = self._stack[-1] if self._stack else None
        if job is None and parent is not None:
            job = parent[5]
        index = self._next_index
        self._next_index += 1
        self._stack.append(
            [name, time.perf_counter(), 0.0, index, parent[3] if parent else -1, job]
        )

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index, parent, job = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration
        if self.keep_spans:
            self.spans.append((name, start, end, index, parent, job))

    def _span_wrapper(self, fn, name: str, job_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            # A subclass calling its parent's implementation stays one span.
            if tracer._stack and tracer._stack[-1][0] == name:
                return fn(obj, *args, **kwargs)
            tracer._enter(name, job_of(obj) if job_of is not None else None)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _install(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _counting(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(obj, *args, **kwargs)

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for cls, attr, name, job_of in SPANS:
            self._install(cls, attr, self._span_wrapper(cls.__dict__[attr], name, job_of))
        self._install(
            SpeedMonitor, "get_speed",
            self._counting(SpeedMonitor.__dict__["get_speed"], "core.get_speed_calls"),
        )
        self._install(
            SpeedMonitor, "report_round",
            self._counting(SpeedMonitor.__dict__["report_round"], "core.report_rounds"),
        )
        self._install(
            InvariantChecker, "finalize",
            self._counting(InvariantChecker.__dict__["finalize"], "check.finalizes"),
        )
        tracer = self
        on_container = ApplicationMaster.on_container  # the span wrapper

        def counted_on_container(am, container):
            accepted = on_container(am, container)
            if accepted:
                tracer.count("yarn.grants")
            return accepted

        self._install(ApplicationMaster, "on_container", counted_on_container)
        tick = HeartbeatService.__dict__["_tick"]

        def counted_tick(service):
            if service._running:
                tracer.count("yarn.heartbeat_ticks")
            return tick(service)

        self._install(HeartbeatService, "_tick", counted_tick)
        scan = SpeculationManager.__dict__["select_speculative"]

        def scanned(manager, container):
            tracer.count("engines.records_scanned", len(manager.am.trace.records))
            return scan(manager, container)

        self._install(SpeculationManager, "select_speculative", scanned)
        reduce_scan = ReducePhaseDriver.__dict__["maybe_speculate"]

        def reduce_scanned(driver, container):
            tracer.count("engines.records_scanned", len(driver.am.trace.records))
            return reduce_scan(driver, container)

        self._install(ReducePhaseDriver, "maybe_speculate", reduce_scanned)
        sim_init = Simulator.__dict__["__init__"]

        def sim_created(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            tracer.sims.append(sim)

        self._install(Simulator, "__init__", sim_created)
        attempt_init = TaskAttempt.__dict__["__init__"]

        def attempt_created(attempt, *args, **kwargs):
            attempt_init(attempt, *args, **kwargs)
            tracer.attempts.append(attempt)

        self._install(TaskAttempt, "__init__", attempt_created)
        return self

    def __exit__(self, *exc) -> None:
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # per-layer metrics of the pass
    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of a finished traced pass lasting ``wall_s``."""
        calls, total, own = self.calls, self.total_s, self.self_s
        counts = self.counts
        m: dict[str, float] = {}
        m["sim.events"] = sum(s.events_processed for s in self.sims)
        m["sim.compactions"] = sum(s.compactions for s in self.sims)
        m["sim.self_s"] = wall_s - self.top_level_s
        for layer in LAYERS[1:]:
            m[f"{layer}.self_s"] = sum(
                v for k, v in own.items() if SPAN_LAYER[k] == layer
            )
        offers = calls.get("engines.on_container", 0)
        grants = counts.get("yarn.grants", 0)
        m["yarn.offer_rounds"] = calls.get("yarn.offer_round", 0)
        m["yarn.offers"] = offers
        m["yarn.grants"] = grants
        m["yarn.declines"] = offers - grants
        m["yarn.offers_per_grant"] = offers / grants if grants else 0.0
        m["yarn.offer_round_s"] = total.get("yarn.offer_round", 0.0)
        m["yarn.offer_round_self_s"] = own.get("yarn.offer_round", 0.0)
        m["yarn.heartbeat_ticks"] = counts.get("yarn.heartbeat_ticks", 0)
        m["yarn.heartbeat_s"] = total.get("yarn.heartbeat", 0.0)
        m["multijob.policy_order_calls"] = calls.get("multijob.policy_order", 0)
        m["multijob.policy_order_s"] = total.get("multijob.policy_order", 0.0)
        m["engines.select_map_calls"] = calls.get("engines.select_map", 0)
        m["engines.select_map_s"] = total.get("engines.select_map", 0.0)
        m["engines.spec_scans"] = calls.get("engines.spec_scan", 0)
        m["engines.spec_scan_s"] = total.get("engines.spec_scan", 0.0)
        m["engines.records_scanned"] = counts.get("engines.records_scanned", 0)
        maps = [a for a in self.attempts if a.kind == "map"]
        backups = [a for a in self.attempts if a.record.speculative]
        useful = [a for a in backups if a.finished]
        m["engines.spec_launched"] = len(backups)
        m["engines.spec_useful_frac"] = len(useful) / len(backups) if backups else 0.0
        m["core.get_speed_calls"] = counts.get("core.get_speed_calls", 0)
        m["core.report_rounds"] = counts.get("core.report_rounds", 0)
        m["core.task_size_s"] = total.get("core.task_size", 0.0)
        m["core.bind_s"] = total.get("core.bind", 0.0)
        m["hdfs.take_for_node_s"] = total.get("hdfs.take_for_node", 0.0)
        local = sum(a.record.local_mb for a in maps)
        remote = sum(a.record.remote_mb for a in maps)
        m["hdfs.remote_bu_frac"] = remote / (local + remote) if local + remote else 0.0
        # Wasted attempts: output discarded (SkewTune's stopped attempts
        # commit their partial output and do not count).
        killed = sum(1 for a in self.attempts if a.record.killed)
        m["mapreduce.attempts"] = len(self.attempts)
        m["mapreduce.killed_frac"] = killed / len(self.attempts) if self.attempts else 0.0
        m["check.finalizes"] = counts.get("check.finalizes", 0)
        return m
