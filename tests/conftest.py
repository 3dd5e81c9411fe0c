"""Shared fixtures: tiny clusters and quick job runs for fast tests."""

from __future__ import annotations

import pytest

from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.mapreduce.job import JobSpec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(42)


class OfferSink:
    """Base of the stand-in AMs tests register with a ResourceManager: the
    parts of an ApplicationMaster the RM reads besides ``on_container``."""

    job_done = False

    def declines_every_node(self) -> bool:
        """Never node-blind, so the RM never closes the sink for a round."""
        return False


def make_cluster(speeds=(1.0, 1.0, 2.0), slots=2, name="test") -> Cluster:
    nodes = [
        Node(f"t{i:02d}", base_speed=s, slots=slots, exec_sigma=0.0)
        for i, s in enumerate(speeds)
    ]
    return Cluster(nodes, network=NetworkModel(), name=name)


@pytest.fixture
def tiny_cluster() -> Cluster:
    return make_cluster()


def tiny_job(input_mb=512.0, reducers=2, shuffle=0.1) -> JobSpec:
    return JobSpec(
        name="tiny",
        input_mb=input_mb,
        map_cost_s_per_mb=0.625,
        shuffle_ratio=shuffle,
        reduce_cost_s_per_mb=0.25,
        num_reducers=reducers,
        input_file="tiny-input",
    )


def quick_run(engine: str, speeds=(1.0, 1.0, 2.0), input_mb=512.0, seed=7, **kwargs):
    """Run a small job end-to-end on a 3-node noise-free cluster."""
    from repro.engines import run_job

    return run_job(
        lambda: make_cluster(speeds),
        tiny_job(input_mb=input_mb, **{k: v for k, v in kwargs.items() if k in ("reducers", "shuffle")}),
        engine,
        seed=seed,
        **{k: v for k, v in kwargs.items() if k not in ("reducers", "shuffle")},
    )
