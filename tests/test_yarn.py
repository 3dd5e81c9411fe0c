"""Unit tests for the YARN substrate: overhead, containers, RM, heartbeats."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.yarn.container import Container
from repro.yarn.heartbeat import HeartbeatService
from repro.yarn import overhead
from repro.yarn.resource_manager import ResourceManager
from tests.conftest import make_cluster


# ---------------------------------------------------------------------------
# startup overhead
# ---------------------------------------------------------------------------
def test_overhead_nominal_without_jitter(monkeypatch):
    monkeypatch.setattr(overhead, "JITTER_FRAC", 0.0)
    monkeypatch.setattr(overhead, "JVM_SPEED_SCALING", 0.0)
    rng = np.random.default_rng(0)
    assert overhead.sample(1.0, rng) == 12.0
    assert overhead.sample(2.0, rng) == 12.0  # no speed scaling


def test_overhead_speed_scaling(monkeypatch):
    monkeypatch.setattr(overhead, "CONTAINER_ALLOC_S", 0.0)
    monkeypatch.setattr(overhead, "JVM_STARTUP_S", 10.0)
    monkeypatch.setattr(overhead, "JITTER_FRAC", 0.0)
    monkeypatch.setattr(overhead, "JVM_SPEED_SCALING", 1.0)
    rng = np.random.default_rng(0)
    assert overhead.sample(2.0, rng) == 5.0
    assert overhead.sample(0.5, rng) == 20.0


def test_overhead_jitter_bounds(monkeypatch):
    monkeypatch.setattr(overhead, "CONTAINER_ALLOC_S", 5.0)
    monkeypatch.setattr(overhead, "JVM_STARTUP_S", 5.0)
    monkeypatch.setattr(overhead, "JITTER_FRAC", 0.2)
    monkeypatch.setattr(overhead, "JVM_SPEED_SCALING", 0.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = overhead.sample(1.0, rng)
        assert 8.0 <= v <= 12.0


def test_overhead_validation():
    with pytest.raises(ValueError):
        overhead.sample(0.0, np.random.default_rng(0))


def test_small_task_dominated_by_overhead(monkeypatch):
    """The Fig. 3 regime: at 8 MB the default overhead yields ~0.3
    productivity for a wordcount-cost map on a slow node."""
    monkeypatch.setattr(overhead, "JITTER_FRAC", 0.0)
    compute = 8.0 * 0.625  # wordcount seconds at speed 1.0
    total = compute + overhead.sample(1.0, np.random.default_rng(0))
    assert 0.2 < compute / total < 0.4


# ---------------------------------------------------------------------------
# Container / ResourceManager
# ---------------------------------------------------------------------------
class AcceptingAM:
    """Accepts every offer up to a budget, occupying slots."""

    def __init__(self, rm, budget):
        self.rm = rm
        self.budget = budget
        self.offers = []

    def on_container(self, container):
        if self.budget <= 0:
            return False
        self.budget -= 1
        self.offers.append(container.node_id)
        self.rm.occupy(container)
        return True


def test_rm_offers_until_declined():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0, 1.0), slots=2)
    rm = ResourceManager(sim, cluster)
    am = AcceptingAM(rm, budget=3)
    rm.register(am)
    rm.start()
    sim.run()
    assert len(am.offers) == 3
    assert sum(n.busy_slots for n in cluster.nodes) == 3


def test_rm_respects_slot_limits():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,), slots=2)
    rm = ResourceManager(sim, cluster)
    am = AcceptingAM(rm, budget=10)
    rm.register(am)
    rm.start()
    sim.run()
    assert len(am.offers) == 2


def test_rm_release_triggers_new_offer():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,), slots=1)
    rm = ResourceManager(sim, cluster)

    taken = []

    class OneAtATime:
        def on_container(self, container):
            if len(taken) >= 2:
                return False
            taken.append(container)
            rm.occupy(container)
            if len(taken) == 1:
                sim.schedule(5.0, lambda: rm.release(container))
            return True

    rm.register(OneAtATime())
    rm.start()
    sim.run()
    assert len(taken) == 2


def test_rm_release_idempotent():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,), slots=1)
    rm = ResourceManager(sim, cluster)
    rm.register(AcceptingAM(rm, budget=0))
    c = Container(cluster.nodes[0])
    rm.occupy(c)
    rm.release(c)
    rm.release(c)  # second release must not underflow slots
    assert cluster.nodes[0].busy_slots == 0


def test_rm_offer_rounds_coalesce():
    sim = Simulator()
    cluster = make_cluster()
    rm = ResourceManager(sim, cluster)
    rm.register(AcceptingAM(rm, budget=0))
    rm.request_offers()
    rm.request_offers()
    rm.request_offers()
    sim.run()
    assert sim.events_processed == 1  # one coalesced round


def test_rm_shuffled_offers_are_seeded():
    def order(seed):
        sim = Simulator()
        cluster = make_cluster(speeds=(1.0,) * 6, slots=1)
        rm = ResourceManager(sim, cluster, rng=RandomStreams(seed).stream("rm"))
        am = AcceptingAM(rm, budget=6)
        rm.register(am)
        rm.start()
        sim.run()
        return am.offers

    assert order(1) == order(1)
    assert order(1) != order(2)  # virtually certain for 6! orderings


# ---------------------------------------------------------------------------
# HeartbeatService
# ---------------------------------------------------------------------------
def test_heartbeat_ticks_periodically():
    sim = Simulator()
    hb = HeartbeatService(sim)
    rounds = []
    hb.subscribe(rounds.append)
    hb.start()
    sim.run(until=26.0)
    assert rounds == [1, 2, 3, 4, 5]


def test_heartbeat_stop_ends_ticks():
    sim = Simulator()
    hb = HeartbeatService(sim)
    rounds = []
    hb.subscribe(rounds.append)
    hb.start()
    sim.schedule(17.5, hb.stop)
    sim.run()
    assert rounds == [1, 2, 3]


def test_heartbeat_multiple_subscribers():
    sim = Simulator()
    hb = HeartbeatService(sim)
    a, b = [], []
    hb.subscribe(a.append)
    hb.subscribe(b.append)
    hb.start()
    sim.schedule(12.5, hb.stop)
    sim.run()
    assert a == b == [1, 2]


def test_heartbeat_start_idempotent():
    sim = Simulator()
    hb = HeartbeatService(sim)
    rounds = []
    hb.subscribe(rounds.append)
    hb.start()
    hb.start()
    sim.schedule(7.5, hb.stop)
    sim.run()
    assert rounds == [1]


# ---------------------------------------------------------------------------
# multi-application RM: registration, per-app accounting, cluster policies
# ---------------------------------------------------------------------------
class CountingAM:
    """Accepts up to ``budget`` containers and holds them forever."""

    def __init__(self, rm, budget):
        self.rm = rm
        self.budget = budget
        self.held = []
        self.job_done = False

    def on_container(self, container):
        if len(self.held) >= self.budget:
            return False
        self.held.append(container)
        self.rm.occupy(container)
        return True


def test_rm_register_is_idempotent():
    sim = Simulator()
    rm = ResourceManager(sim, make_cluster())
    am = AcceptingAM(rm, budget=0)
    rm.register(am, queue="batch", weight=3.0)
    rm.register(am)  # second call must not reset queue/weight or duplicate
    assert len(rm.apps) == 1
    (record,) = rm.apps
    assert record.queue == "batch"
    assert record.weight == 3.0


def test_rm_unregister_removes_app():
    sim = Simulator()
    rm = ResourceManager(sim, make_cluster())
    a, b = AcceptingAM(rm, budget=0), AcceptingAM(rm, budget=0)
    rm.register(a)
    rm.register(b)
    rm.unregister(a)
    rm.unregister(a)  # idempotent
    assert [r.am for r in rm.apps] == [b]


def test_rm_per_app_slot_accounting():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0, 1.0), slots=2)  # 4 slots
    rm = ResourceManager(sim, cluster)
    a = CountingAM(rm, budget=3)
    b = CountingAM(rm, budget=99)
    rm.register(a)
    rm.register(b)
    rm.start()
    sim.run()
    assert rm.used_slots(a) == 3
    assert rm.used_slots(b) == 1
    rm.release(a.held[0])
    assert rm.used_slots(a) == 2


def test_rm_double_release_does_not_corrupt_app_accounting():
    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,), slots=2)
    rm = ResourceManager(sim, cluster)
    am = CountingAM(rm, budget=2)
    rm.register(am)
    rm.start()
    sim.run()
    assert rm.used_slots(am) == 2
    c = am.held[0]
    rm.release(c)
    rm.release(c)  # must not double-decrement the app's held-slot count
    assert rm.used_slots(am) == 1
    assert cluster.nodes[0].busy_slots == 1


def test_rm_num_active_apps_counts_live_ams():
    sim = Simulator()
    rm = ResourceManager(sim, make_cluster())
    assert rm.num_active_apps == 1  # floor: never divides by zero
    a, b = CountingAM(rm, budget=0), CountingAM(rm, budget=0)
    rm.register(a)
    rm.register(b)
    assert rm.num_active_apps == 2
    a.job_done = True  # a finishing AM unregisters right after
    rm.unregister(a)
    assert rm.num_active_apps == 1


def test_fair_policy_routes_offers_to_underserved_am():
    from repro.multijob.policies import FairPolicy

    sim = Simulator()
    cluster = make_cluster(speeds=(1.0, 1.0, 1.0), slots=2)  # 6 slots
    rm = ResourceManager(sim, cluster, scheduler=FairPolicy())
    a = CountingAM(rm, budget=99)
    b = CountingAM(rm, budget=99)
    rm.register(a)
    rm.register(b)
    rm.start()
    sim.run()
    # Equal weights: the 6 slots split 3/3 instead of FIFO's 6/0.
    assert rm.used_slots(a) == 3
    assert rm.used_slots(b) == 3


def test_fair_policy_respects_weights():
    from repro.multijob.policies import FairPolicy

    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,) * 3, slots=2)  # 6 slots
    rm = ResourceManager(sim, cluster, scheduler=FairPolicy())
    a = CountingAM(rm, budget=99)
    b = CountingAM(rm, budget=99)
    rm.register(a, weight=2.0)
    rm.register(b, weight=1.0)
    rm.start()
    sim.run()
    assert rm.used_slots(a) == 4
    assert rm.used_slots(b) == 2


def test_fifo_policy_starves_later_apps():
    from repro.multijob.policies import FifoPolicy

    sim = Simulator()
    cluster = make_cluster(speeds=(1.0,) * 2, slots=2)  # 4 slots
    rm = ResourceManager(sim, cluster, scheduler=FifoPolicy())
    a = CountingAM(rm, budget=99)
    b = CountingAM(rm, budget=99)
    rm.register(a)
    rm.register(b)
    rm.start()
    sim.run()
    assert rm.used_slots(a) == 4
    assert rm.used_slots(b) == 0


def test_multi_am_offer_order_deterministic_under_seeded_shuffle():
    from repro.multijob.policies import FairPolicy

    def grant_log(seed):
        sim = Simulator()
        cluster = make_cluster(speeds=(1.0,) * 5, slots=2)
        rm = ResourceManager(
            sim, cluster,
            rng=RandomStreams(seed).stream("rm-offers"),
            scheduler=FairPolicy(),
        )
        ams = {name: CountingAM(rm, budget=99) for name in "ab"}
        for am in ams.values():
            rm.register(am)
        rm.start()
        sim.run()
        return [
            (name, c.node_id)
            for name, am in ams.items()
            for c in am.held
        ]

    assert grant_log(11) == grant_log(11)  # same seed => identical grant order
    assert grant_log(11) != grant_log(12)
