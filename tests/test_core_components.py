"""Unit tests for FlexMap's components: SpeedMonitor, sizing (Algorithm 1),
LTB, DataProvision and the reduce-placement bias."""

import numpy as np
import pytest

from repro.core.data_provision import DataProvision
from repro.core.late_binding import LateTaskBinder
from repro.core.reduce_bias import ReducePlacer
from repro.core import sizing, speed_monitor
from repro.core.sizing import BU_MB, DynamicSizer, NodeSizing
from repro.core.speed_monitor import SpeedMonitor
from repro.hdfs.block import Block


def blocks_for(replicas_map, size=8.0):
    return [
        Block(block_id=i, file="f", size_mb=size, replicas=tuple(reps))
        for i, reps in enumerate(replicas_map)
    ]


# ---------------------------------------------------------------------------
# SpeedMonitor
# ---------------------------------------------------------------------------
def test_monitor_returns_none_before_feedback():
    m = SpeedMonitor()
    assert m.get_speed("a") is None
    assert m.relative_speed("a") == 1.0
    assert m.slowest_speed() is None


def test_monitor_round_average_ignores_startup_zeros():
    m = SpeedMonitor()
    m.report_round(1, {"a": [0.0, 2.0, 4.0], "b": [0.0, 0.0]})
    assert m.get_speed("a") == pytest.approx(3.0)
    assert m.get_speed("b") is None


def test_monitor_window_slides(monkeypatch):
    monkeypatch.setattr(speed_monitor, "WINDOW", 3)
    m = SpeedMonitor()
    for i, v in enumerate([1.0, 2.0, 3.0, 4.0], start=1):
        m.report_round(i, {"a": [v]})
    assert m.get_speed("a") == pytest.approx((2.0 + 3.0 + 4.0) / 3.0)


def test_monitor_completion_samples_count():
    m = SpeedMonitor()
    m.report_completion("a", 5.0)
    m.report_completion("a", 3.0)
    assert m.get_speed("a") == pytest.approx(4.0)
    m.report_completion("a", 0.0)  # ignored
    assert m.get_speed("a") == pytest.approx(4.0)


def test_monitor_relative_speed_vs_slowest():
    m = SpeedMonitor()
    m.report_completion("slow", 1.0)
    m.report_completion("fast", 3.0)
    assert m.relative_speed("fast") == pytest.approx(3.0)
    assert m.relative_speed("slow") == 1.0
    assert m.relative_speed("unknown") == 1.0


def test_monitor_relative_speed_floored_at_one():
    """Algorithm 1 normalizes to the slowest node, so ratios are >= 1."""
    m = SpeedMonitor()
    m.report_completion("a", 2.0)
    m.report_completion("b", 4.0)
    assert m.relative_speed("a") >= 1.0


def test_monitor_drops_stale_round_reports():
    """A replayed or out-of-order round must not mix into the window."""
    m = SpeedMonitor()
    m.report_round(3, {"a": [2.0]})
    # Replay of the same round and an older round are both stale.
    assert m.report_round(3, {"a": [100.0]}) == 1
    assert m.report_round(2, {"a": [100.0]}) == 1
    assert m.stale_reports == 2
    assert m.get_speed("a") == pytest.approx(2.0)
    # A strictly newer round is accepted again.
    assert m.report_round(4, {"a": [4.0]}) == 0
    assert m.get_speed("a") == pytest.approx(3.0)
    assert m.last_round("a") == 4


def test_monitor_round_tracking_is_per_node():
    m = SpeedMonitor()
    m.report_round(5, {"a": [1.0]})
    # Node b has never reported: round 2 is fresh for it, stale for a.
    dropped = m.report_round(2, {"a": [9.0], "b": [3.0]})
    assert dropped == 1
    assert m.get_speed("a") == pytest.approx(1.0)
    assert m.get_speed("b") == pytest.approx(3.0)


def test_monitor_empty_round_still_advances_round_tracking():
    """A round where every container was in startup is still 'seen'."""
    m = SpeedMonitor()
    m.report_round(1, {"a": [0.0]})
    assert m.report_round(1, {"a": [5.0]}) == 1  # replay of round 1
    assert m.get_speed("a") is None


def test_monitor_new_epoch_accepts_restarted_numbering():
    """Warm-started iterative AMs restart heartbeat rounds at 1; after
    new_epoch() the carried-over monitor must accept them (samples kept)."""
    m = SpeedMonitor()
    m.report_round(50, {"a": [2.0]})
    assert m.report_round(1, {"a": [4.0]}) == 1  # stale without the reset
    m.new_epoch()
    assert m.report_round(1, {"a": [4.0]}) == 0
    assert m.get_speed("a") == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Sizing — Algorithm 1
# ---------------------------------------------------------------------------
def test_vertical_fast_scaling_doubles():
    s = NodeSizing(BU_MB)
    assert s.size_unit_mb == 8.0
    s.vertical(0.3)  # < FAST_LIMIT
    assert s.size_unit_mb == 16.0
    s.vertical(0.5)
    assert s.size_unit_mb == 32.0


def test_vertical_linear_scaling_adds_one_bu():
    s = NodeSizing(BU_MB)
    s.vertical(0.85)  # between FAST and LINEAR limits
    assert s.size_unit_mb == 16.0
    s.vertical(0.85)
    assert s.size_unit_mb == 24.0


def test_vertical_freezes_above_linear_limit():
    s = NodeSizing(BU_MB)
    s.vertical(0.3)
    s.vertical(0.95)  # >= LINEAR_LIMIT -> stop growing
    assert s.frozen
    s.vertical(0.1)  # frozen: even bad productivity doesn't grow it
    assert s.size_unit_mb == 16.0


def test_vertical_capped_at_max(monkeypatch):
    monkeypatch.setattr(sizing, "MAX_BUS", 4)
    s = NodeSizing(BU_MB)
    for _ in range(10):
        s.vertical(0.1)
    assert s.size_unit_mb == 32.0  # 4 BUs * 8 MB


def test_vertical_rejects_bad_productivity():
    s = NodeSizing(BU_MB)
    with pytest.raises(ValueError):
        s.vertical(1.5)


def test_horizontal_scaling_proportional_to_speed():
    d = DynamicSizer()
    d.record_wave("fast", 0.3)  # size unit -> 16 MB
    assert d.task_size_bus("fast", relative_speed=1.0) == 2
    assert d.task_size_bus("fast", relative_speed=3.0) == 6
    # Unknown node: still at one BU.
    assert d.task_size_bus("other", relative_speed=1.0) == 1


def test_horizontal_rounding_and_floor():
    d = DynamicSizer()
    assert d.task_size_bus("n", relative_speed=1.4) == 1  # round(1.4) -> 1
    assert d.task_size_bus("n", relative_speed=1.6) == 2


def test_horizontal_rounds_half_up_not_half_even():
    """Regression: int(round(2.5)) is 2 under banker's rounding, silently
    shrinking tasks on exact .5 BU boundaries; Algorithm 1 rounds half-up."""
    d = DynamicSizer()
    d.record_wave("n", 0.3)  # s_i -> 16 MB = 2 BUs
    assert d.task_size_bus("n", relative_speed=1.25) == 3  # 2.5 BUs -> 3
    assert d.task_size_bus("n", relative_speed=1.75) == 4  # 3.5 BUs -> 4
    assert d.task_size_bus("n", relative_speed=2.25) == 5  # 4.5 BUs -> 5
    # Below-the-half boundaries still round down.
    assert d.task_size_bus("n", relative_speed=1.2) == 2  # 2.4 BUs -> 2


def test_horizontal_half_up_on_fresh_node():
    d = DynamicSizer()
    assert d.task_size_bus("n", relative_speed=1.5) == 2  # 1.5 BUs -> 2
    assert d.task_size_bus("n", relative_speed=2.5) == 3  # 2.5 BUs -> 3


def test_vertical_returns_decision():
    s = NodeSizing(BU_MB)
    assert s.vertical(0.3) == "fast"
    assert s.vertical(0.85) == "linear"
    assert s.vertical(0.95) == "freeze"
    assert s.vertical(0.1) == "frozen"


def test_nodes_grow_independently():
    """A slow node's sluggish growth must not hold back a fast node."""
    d = DynamicSizer()
    for _ in range(3):
        d.record_wave("fast", 0.3)
    d.record_wave("slow", 0.3)
    assert d.size_unit_mb("fast") == 64.0
    assert d.size_unit_mb("slow") == 16.0


def test_sizer_caps_at_max_bus(monkeypatch):
    monkeypatch.setattr(sizing, "MAX_BUS", 8)
    d = DynamicSizer()
    for _ in range(10):
        d.record_wave("n", 0.1)
    assert d.task_size_bus("n", relative_speed=10.0) == 8


def test_sizing_config_validation():
    with pytest.raises(ValueError):
        DynamicSizer(bu_mb=0.0)
    d = DynamicSizer()
    with pytest.raises(ValueError):
        d.task_size_bus("n", relative_speed=0.0)


def test_paper_constants():
    assert sizing.BU_MB == 8.0
    assert sizing.FAST_LIMIT == 0.8
    assert sizing.LINEAR_LIMIT == 0.9
    assert DynamicSizer().bu_mb == 8.0


# ---------------------------------------------------------------------------
# Late Task Binding
# ---------------------------------------------------------------------------
def test_ltb_one_template_per_bu():
    binder = LateTaskBinder(blocks_for([("a",), ("b",), ("c",)]))
    assert binder.unprocessed_bus == 3


def test_ltb_bind_prefers_local():
    binder = LateTaskBinder(blocks_for([("a",), ("a",), ("b",)]))
    split = binder.bind("a", 2)
    assert split.num_bus == 2
    assert split.remote_mb == 0.0
    assert binder.unprocessed_bus == 1


def test_ltb_bind_falls_back_to_remote():
    binder = LateTaskBinder(blocks_for([("a",), ("b",), ("b",)]))
    split = binder.bind("a", 3)
    assert split.num_bus == 3
    assert split.local_mb == 8.0
    assert split.remote_mb == 16.0


def test_ltb_bind_exhaustion_returns_none_and_discards_templates():
    binder = LateTaskBinder(blocks_for([("a",), ("a",)]))
    assert binder.bind("a", 2).num_bus == 2
    assert binder.bind("a", 1) is None
    assert binder.unprocessed_bus == 0


def test_ltb_put_back():
    binder = LateTaskBinder(blocks_for([("a",), ("a",)]))
    split = binder.bind("a", 2)
    binder.put_back(split)
    assert binder.unprocessed_bus == 2
    assert binder.bind("a", 2).blocks == split.blocks


def test_ltb_accounting_invariant_under_kill_and_rebind_cycles():
    """Bound BUs + unprocessed BUs == all BUs, at every step."""
    reps = [("a", "b"), ("b", "c"), ("a", "c"), ("a",), ("b",), ("c",), ("a",), ("b",)]
    binder = LateTaskBinder(blocks_for(reps))
    live = []

    def bind(node, n):
        split = binder.bind(node, n)
        if split is not None:
            live.append(split)
        check()
        return split

    def put_back(split):
        live.remove(split)
        binder.put_back(split)
        check()

    def check():
        bound = sum(split.num_bus for split in live)
        assert bound + binder.unprocessed_bus == len(reps)

    check()
    # Cycle 1: bind on every node, then kill (put back) all splits.
    splits = [bind(node, 2) for node in ["a", "b", "c"]]
    for split in splits:
        put_back(split)
    assert binder.unprocessed_bus == len(reps)
    # Cycle 2: partial kill-and-rebind — one split dies, others survive.
    s1 = bind("a", 3)
    s2 = bind("b", 3)
    put_back(s1)  # node a crashed
    rebound = bind("c", 8)  # survivor claims everything left
    assert rebound.num_bus == len(reps) - s2.num_bus
    # Drain: nothing left, every BU bound exactly once.
    assert bind("a", 1) is None
    assert binder.unprocessed_bus == 0
    bound_ids = sorted(b.block_id for split in live for b in split.blocks)
    assert bound_ids == list(range(len(reps)))


def test_ltb_discard_count_after_put_back_and_drain():
    """put_back then a larger final bind: one task swallows every BU, so no
    template is left over (the unused templates are the unprocessed BUs)."""
    binder = LateTaskBinder(blocks_for([("a",), ("a",), ("b",)]))
    split = binder.bind("a", 2)
    binder.put_back(split)
    assert binder.unprocessed_bus == 3  # all BUs unprocessed again
    assert binder.bind("b", 3).num_bus == 3  # one task swallows all three BUs
    assert binder.unprocessed_bus == 0


def test_ltb_each_bu_bound_once():
    reps = [("a", "b"), ("b", "c"), ("a", "c"), ("a",), ("b",), ("c",)]
    binder = LateTaskBinder(blocks_for(reps))
    seen = []
    for node in ["a", "b", "c"]:
        split = binder.bind(node, 2)
        seen.extend(b.block_id for b in split.blocks)
    assert sorted(seen) == list(range(6))


# ---------------------------------------------------------------------------
# DataProvision
# ---------------------------------------------------------------------------
def test_dp_combines_monitor_and_sizer():
    monitor = SpeedMonitor()
    sizer = DynamicSizer()
    dp = DataProvision(monitor, sizer)
    assert dp.task_size_bus("n") == 1  # cold start: one BU everywhere
    monitor.report_completion("n", 4.0)
    monitor.report_completion("slow", 1.0)
    dp.wave_feedback("n", 0.3)  # size unit 16 MB = 2 BUs
    assert dp.task_size_bus("n") == 8  # 2 BUs * relative speed 4


# ---------------------------------------------------------------------------
# ReducePlacer
# ---------------------------------------------------------------------------
def test_bias_is_capacity_squared():
    p = ReducePlacer(np.random.default_rng(0))
    assert p.bias(1.0) == 1.0
    assert p.bias(0.5) == 0.25
    with pytest.raises(ValueError):
        p.bias(0.0)
    with pytest.raises(ValueError):
        p.bias(1.5)


def test_fast_node_always_accepted():
    p = ReducePlacer(np.random.default_rng(0))
    assert all(p.accepts(1.0) for _ in range(100))


def test_choose_favours_fast_nodes():
    """A node of capacity c accepts an offered reducer with frequency c**2."""
    p = ReducePlacer(np.random.default_rng(0))
    trials = 4000
    accepted = sum(p.accepts(0.4) for _ in range(trials))
    assert accepted / trials == pytest.approx(0.16, abs=0.02)
