"""Unit tests for the discrete-event engine."""

import pytest

from repro.cluster.failures import FailureSchedule
from repro.engines import run_job
from repro.sim.engine import Simulator
from tests.conftest import make_cluster, tiny_job


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_fires_in_order(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fire_in_schedule_order(sim):
    fired = []
    for tag in "abcde":
        sim.schedule(3.0, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(4.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.5]


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule(2.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 3.0


def test_zero_delay_event_fires_at_current_time(sim):
    times = []

    def outer():
        sim.schedule(0.0, lambda: times.append(sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert times == [2.0]


def test_run_until_stops_clock(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_when_heap_drains_early(sim):
    # Regression: the heap drains at t=2 but the bounded run must still
    # leave the clock at `until` so back-to-back bounded runs are coherent.
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.run(until=10.0)
    assert fired == [2.0]
    assert sim.now == 10.0


def test_run_until_advances_clock_on_empty_heap(sim):
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_until_advances_clock_when_all_events_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    h2 = sim.schedule(2.0, lambda: None)
    h1.cancel()
    h2.cancel()
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_back_to_back_bounded_runs_observe_consistent_clock(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run(until=10.0)
    assert sim.now == 10.0
    # Scheduling relative to the advanced clock must land after `until`.
    sim.schedule(1.0, lambda: fired.append(sim.now))
    sim.run(until=20.0)
    assert fired == [1.0, 11.0]
    assert sim.now == 20.0


def test_run_until_does_not_rewind_past_events(sim):
    sim.schedule(3.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == 2.0
    sim.run(until=4.0)
    assert sim.now == 4.0
    # The clock never moved backwards and the event fired exactly once.
    assert sim.events_processed == 1


def test_run_max_events_leaves_clock_at_last_event(sim):
    # Stopping on max_events is NOT a drained run: pending work remains
    # before `until`, so the clock must stay at the last processed event.
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=10.0, max_events=2)
    assert sim.now == 2.0
    assert sim.pending == 3


def test_run_max_events(sim):
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_step_returns_false_when_idle(sim):
    assert sim.step() is False


def test_pending_counts_only_live_events(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    h1.cancel()
    assert sim.pending == 1


def test_peek_time_skips_cancelled(sim):
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek_time() == 2.0


def test_events_processed_counter(sim):
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 3


def test_determinism_two_identical_runs():
    def build():
        s = Simulator()
        log = []
        s.schedule(1.0, lambda: log.append((s.now, "a")))
        s.schedule(1.0, lambda: log.append((s.now, "b")))
        s.schedule(0.5, lambda: s.schedule(0.5, lambda: log.append((s.now, "c"))))
        s.run()
        return log

    assert build() == build()


# ---------------------------------------------------------------------------
# lazy-cancellation heap compaction
# ---------------------------------------------------------------------------
def test_heap_compacts_when_cancelled_dominate():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
    assert len(sim._heap) == 1000
    for h in handles[:600]:
        h.cancel()
    # Cancelled entries became the majority, so the heap must have been
    # rebuilt from live entries instead of holding 600 dead ones.
    assert sim.compactions >= 1
    assert len(sim._heap) < 600
    assert sim.pending == 400


def test_compaction_preserves_event_order():
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(float(i), (lambda i=i: fired.append(i))) for i in range(100)
    ]
    for h in handles[::2]:  # cancel the even-indexed majority... exactly half
        h.cancel()
    for h in handles[1:51:2]:  # push cancellations over the 1/2 threshold
        h.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert fired == sorted(fired)
    assert fired == [i for i in range(51, 100, 2)]


def test_cancel_is_idempotent_in_compaction_count():
    sim = Simulator()
    keep = sim.schedule(10.0, lambda: None)
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    h.cancel()  # double cancel must not double-count toward the threshold
    h.cancel()
    assert sim.pending == 1
    sim.run()
    assert sim.events_processed == 1
    assert keep.cancelled is False


def test_popping_cancelled_entries_does_not_trigger_spurious_compaction():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for h in handles[:4]:  # below the majority threshold: no compaction
        h.cancel()
    assert sim.compactions == 0
    sim.run()  # pops the 4 cancelled entries, decrementing the counter
    assert sim.compactions == 0
    assert sim.events_processed == 6


def test_long_cancel_heavy_run_stays_bounded():
    """Regression: a workload that perpetually reschedules (cancel + new
    event) must not grow the heap linearly with total cancellations."""
    sim = Simulator()
    pending = [sim.schedule(1.0, lambda: None)]

    def churn(i):
        pending[0].cancel()
        pending[0] = sim.schedule(2.0, lambda: None)

    for i in range(5000):
        sim.schedule(float(i) * 1e-3, lambda i=i: churn(i))
    sim.run()
    assert sim.compactions > 0
    assert len(sim._heap) <= 10  # not O(5000)


def test_cancelling_a_fired_handle_counts_no_heap_entry():
    """A handle that has fired is gone from the heap: cancelling it late
    (an owner tidying up) must not count toward compaction."""
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    later = [sim.schedule(5.0 + i, lambda: None) for i in range(2)]
    sim.run(until=2.0)
    fired.cancel()
    assert fired.cancelled
    assert sim._cancelled_in_heap == 0
    sim.run()
    fired.cancel()
    assert sim._cancelled_in_heap == 0
    assert sim.compactions == 0
    assert sim.events_processed == 3 and not any(h.cancelled for h in later)


@pytest.mark.parametrize("engine", ["hadoop-64", "skewtune-64"])
def test_compaction_counts_exactly_the_cancelled_heap_entries(engine, monkeypatch):
    """A run with backup copies and a node crash cancels phase and finish
    events of live attempts: at every compaction the counter equals the
    cancelled entries actually in the heap."""
    seen = []
    compact = Simulator._compact

    def checked_compact(self):
        seen.append(
            (self._cancelled_in_heap, sum(1 for e in self._heap if e[2].cancelled))
        )
        compact(self)

    monkeypatch.setattr(Simulator, "_compact", checked_compact)
    result = run_job(
        lambda: make_cluster(speeds=(2.0, 2.0, 0.2, 1.0)),
        tiny_job(input_mb=1024.0, reducers=4, shuffle=0.5),
        engine, seed=4, failures=FailureSchedule.single(60.0, "t03"),
    )
    assert any(r.speculative for r in result.trace.records)
    assert any(r.killed and r.node == "t03" for r in result.trace.records)
    assert seen
    assert all(counted == in_heap for counted, in_heap in seen), seen
