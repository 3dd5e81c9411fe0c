"""The one-pass straggler scans against a reference built from the attempt
API, and the plain-float percentile against numpy.

The reference reads each attempt through ``elapsed()``, ``progress()``,
``progress_rate()`` and ``est_time_left()`` and takes LATE's threshold with
``np.percentile``; the scans must return the same stragglers, with the same
rate and time left bit for bit, and pick the same victims, at every instant
a real run consults them.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.engines import run_job, skewtune, speculation
from repro.engines.base import ReducePhaseDriver
from repro.engines.skewtune import SkewTuneAM
from repro.engines.speculation import SpeculationManager
from repro.experiments.clusters import multitenant_cluster
from repro.metrics.stats import percentile
from repro.multijob.arrivals import ClosedLoopArrivals
from repro.multijob.service import ClusterService
from repro.workloads.puma import puma


# ---------------------------------------------------------------------------
# percentile
# ---------------------------------------------------------------------------
def _samples():
    rng = random.Random(20)
    for n in range(1, 65):
        yield [rng.random() for _ in range(n)]
        yield [float(rng.randint(-3, 3)) for _ in range(n)]  # ties, negatives, zeros
        yield [rng.uniform(-1e6, 1e6) * rng.choice((0.0, 1.0, 1e-9)) for _ in range(n)]
        yield [rng.lognormvariate(0.0, 3.0) for _ in range(n)]


@pytest.mark.parametrize("q", [25, 50, 95, 99])
def test_percentile_equals_numpy(q):
    mismatches = [
        values for values in _samples()
        if percentile(values, q) != float(np.percentile(values, q))
    ]
    assert not mismatches


@pytest.mark.parametrize("values", [
    [1.0, math.inf], [math.inf], [-math.inf, 1.0, math.inf], [2.0, math.nan, 1.0],
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_percentile_follows_numpy_through_infinities_and_nan(values):
    for q in (0, 25, 50, 99, 100):
        want = float(np.percentile(values, q))
        got = percentile(values, q)
        assert got == want or (math.isnan(got) and math.isnan(want))


# ---------------------------------------------------------------------------
# the scans in real runs
# ---------------------------------------------------------------------------
def reference_stragglers(manager, running, kind, speculated):
    fresh = manager._fresh_copy_estimate_s(kind)
    if fresh == math.inf:
        return []
    return [
        a for a in running
        if not a.record.speculative
        and a.task_id not in speculated
        and a.elapsed() >= speculation.MIN_AGE_S
        and a.progress() < speculation.MAX_PROGRESS
        and a.est_time_left() > fresh
    ]


def longest_left(attempts):
    return max(attempts, key=lambda a: (a.est_time_left(), a.task_id))


def reference_map_pick(manager):
    live = [a for a in manager.am.maps.running if a.record.speculative]
    if not manager.enabled or len(live) >= manager._cap:
        return None
    maps = manager.am.maps
    candidates = reference_stragglers(manager, maps.running, "map", maps.speculated_ids)
    if not candidates:
        return None
    rates = np.array([a.progress_rate() for a in candidates])
    threshold = np.percentile(rates, speculation.SLOW_TASK_PERCENTILE)
    slow = [a for a, r in zip(candidates, rates) if r <= threshold]
    return longest_left(slow).task_id if slow else None


def assert_scan_matches(manager, running, kind, speculated):
    want = reference_stragglers(manager, running, kind, speculated)
    got = manager.stragglers(running, kind, speculated)
    assert [a for a, _, _ in got] == want
    for a, rate, left in got:
        assert (rate, left) == (a.progress_rate(), a.est_time_left())


@pytest.fixture
def checked_scans(monkeypatch):
    """Check every map, reduce and SkewTune scan against the reference;
    count ``(scan, picked)`` outcomes."""
    seen: Counter = Counter()
    select = SpeculationManager.select_speculative
    maybe = ReducePhaseDriver.maybe_speculate
    mitigate = SkewTuneAM._try_mitigate
    repartition = SkewTuneAM._repartition
    victims: list[str] = []

    def select_checked(manager, container):
        maps = manager.am.maps
        assert_scan_matches(manager, maps.running, "map", maps.speculated_ids)
        want = reference_map_pick(manager)
        got = select(manager, container)
        assert (got.task_id if got is not None else None) == want
        seen["map", want is not None] += 1
        return got

    def maybe_checked(driver, container):
        am = driver.am
        want = None
        if am._backs_up_stragglers():
            assert_scan_matches(am.speculation, driver.running, "reduce", driver.speculated_ids)
            candidates = reference_stragglers(
                am.speculation, driver.running, "reduce", driver.speculated_ids
            )
            if candidates:
                want = longest_left(candidates).task_id
        before = set(driver.speculated_ids)
        launched = maybe(driver, container)
        assert launched == (want is not None)
        assert driver.speculated_ids - before == ({want} if want else set())
        seen["reduce", want is not None] += 1
        return launched

    def repartition_recorded(am, victim, container):
        victims.append(victim.task_id)
        return repartition(am, victim, container)

    def mitigate_checked(am, container):
        want = None
        outstanding = len(am.mitigation_queue) + sum(
            1 for a in am.maps.running if a.task_id.startswith("st")
        )
        if outstanding < skewtune.MAX_OUTSTANDING_MITIGATIONS:
            candidates = [
                a for a in am.maps.running
                if a.task_id not in am.mitigated_tasks
                and not a.record.task_id.startswith("st")
                and a.elapsed() >= skewtune.MIN_AGE_S
            ]
            if candidates:
                victim = longest_left(candidates)
                if victim.est_time_left() >= skewtune.MIN_REMAINING_S:
                    want = victim.task_id
        before = len(victims)
        mitigate(am, container)
        assert victims[before:] == ([want] if want else [])
        seen["skewtune", want is not None] += 1

    monkeypatch.setattr(SpeculationManager, "select_speculative", select_checked)
    monkeypatch.setattr(ReducePhaseDriver, "maybe_speculate", maybe_checked)
    monkeypatch.setattr(SkewTuneAM, "_try_mitigate", mitigate_checked)
    monkeypatch.setattr(SkewTuneAM, "_repartition", repartition_recorded)
    return seen


def test_scans_match_the_reference_in_a_multi_job_stream(checked_scans):
    """The serve-mt40 benchmark's stream: 8 closed-loop jobs, 4 at a time,
    FlexMap and hadoop-64 on the 40-node cluster with 40% slow nodes."""
    arrivals = ClosedLoopArrivals(
        n_jobs=8, width=4, benchmarks=("WC", "GR", "HR", "HM"),
        engines=("flexmap", "hadoop-64"), input_scale=0.125,
    )
    service = ClusterService(
        lambda: multitenant_cluster(0.4), arrivals, policy="fair", seed=1
    )
    assert len(service.run(compute_slowdown=False).outcomes) == 8
    assert checked_scans["map", True] > 20
    assert checked_scans["map", False] > 1000
    assert checked_scans["reduce", True] > 0
    assert checked_scans["reduce", False] > 100


def test_scans_match_the_reference_in_a_skewtune_job(checked_scans):
    result = run_job(
        lambda: multitenant_cluster(0.4), puma("WC"), "skewtune-64",
        seed=2, input_mb=puma("WC").large_gb * 1024.0 / 16,
    )
    assert result.am.job_done
    assert checked_scans["skewtune", True] > 0
    assert checked_scans["skewtune", False] > 100
    assert checked_scans["reduce", True] > 0


def test_scans_match_the_reference_when_attempts_are_judged_at_launch(
    checked_scans, monkeypatch
):
    """With no minimum age, attempts launched this instant (no time
    elapsed) are scanned too."""
    monkeypatch.setattr(speculation, "MIN_AGE_S", 0.0)
    result = run_job(
        lambda: multitenant_cluster(0.4), puma("GR"), "hadoop-64",
        seed=3, input_mb=puma("GR").large_gb * 1024.0 / 16,
    )
    assert result.am.job_done
    assert checked_scans["map", True] > 0
