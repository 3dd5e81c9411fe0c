"""Config fuzzer: deterministic sampling, probing, and greedy shrinking.

The acceptance bar from the harness design: a hand-built broken config
(a seeded slot-leak bug on a five-node cluster with two failures) must
shrink to a reproducer with at most two nodes and one failure, and the
reproducer must round-trip through JSON bit-identically.
"""

import numpy as np
import pytest

from repro.check import (
    Failure,
    ScenarioConfig,
    fuzz_run,
    probe,
    same_failure_predicate,
    sample_scenario,
    shrink,
)


def test_sampling_is_deterministic():
    a = [sample_scenario(np.random.default_rng(0), index=i) for i in range(10)]
    b = [sample_scenario(np.random.default_rng(0), index=i) for i in range(10)]
    assert a == b


def test_sampling_never_kills_every_node():
    rng = np.random.default_rng(1)
    for i in range(50):
        config = sample_scenario(rng, index=i)
        alive = len(config.speeds) - len({n for _, n in config.failures})
        assert alive >= 1


def test_probe_clean_on_default_config():
    assert probe(ScenarioConfig()) is None


def test_probe_classifies_invariant_failures():
    failure = probe(ScenarioConfig(mutation="double-assign-bu"))
    assert failure is not None
    assert failure.key == ("invariant", "bu-conservation")


def test_shrink_reaches_minimal_reproducer():
    # Five nodes, two failures, a seeded slot leak: the shrinker must get
    # this down to <= 2 nodes and <= 1 failure while keeping the same
    # (kind, rule) failure alive.
    broken = ScenarioConfig(
        engine="hadoop-64",
        speeds=(1.0, 0.5, 2.0, 1.0, 1.0),
        slots=(2, 3, 2, 1, 2),
        input_mb=512.0,
        reducers=3,
        failures=((40.0, 3), (70.0, 1)),
        mutation="leak-slot-on-failure",
    )
    original = probe(broken)
    assert original is not None and original.rule == "slot-leak"
    shrunk, probes = shrink(broken, same_failure_predicate(original))
    assert probes > 0
    assert len(shrunk.speeds) <= 2
    assert len(shrunk.failures) <= 1
    # The shrunk config still reproduces the same failure.
    final = probe(shrunk)
    assert final is not None and final.key == original.key


def test_shrink_predicate_rejects_different_failures():
    predicate = same_failure_predicate(Failure("invariant", "slot-leak", ""))
    # A clean config cannot satisfy the predicate.
    assert not predicate(ScenarioConfig())
    # A config failing with a *different* rule cannot hijack the shrink.
    assert not predicate(ScenarioConfig(mutation="skip-heartbeat"))


def test_reproducer_json_round_trip():
    config = ScenarioConfig(
        seed=9,
        engine="skewtune-64",
        speeds=(1.0, 0.25),
        slots=(1, 2),
        failures=((42.9, 0),),
        n_jobs=2,
        policy="capacity",
    )
    again = ScenarioConfig.from_json(config.to_json())
    assert again == config
    assert again.to_json() == config.to_json()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown reproducer fields"):
        ScenarioConfig.from_dict({"seed": 0, "warp_factor": 9})


def test_config_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        ScenarioConfig(engine="mapreduce-9000")
    with pytest.raises(ValueError, match="negative seed"):
        ScenarioConfig(seed=-1)
    with pytest.raises(ValueError, match="length mismatch"):
        ScenarioConfig(speeds=(1.0, 1.0), slots=(2,))
    with pytest.raises(ValueError, match="unknown node index"):
        ScenarioConfig(failures=((10.0, 7),))
    with pytest.raises(ValueError, match="kills every node"):
        ScenarioConfig(
            speeds=(1.0,), slots=(2,), failures=((10.0, 0),)
        )


def test_fuzz_run_small_campaign_is_clean():
    result = fuzz_run(iterations=5, seed=0)
    assert result.ok
    assert result.passed == 5
    assert result.shrunk_config is None


def test_fuzz_run_finds_and_shrinks_seeded_bug(monkeypatch):
    """Force the sampler to emit a mutated config: the campaign must stop,
    report the failure, and hand back a shrunk reproducer."""
    import repro.check.fuzz as fuzz_mod

    real_sample = fuzz_mod.sample_scenario

    def sample_with_bug(rng, index):
        config = real_sample(rng, index)
        from dataclasses import replace

        return replace(
            config,
            failures=((30.0, 0),) if len(config.speeds) > 1 else config.failures,
            mutation="leak-slot-on-failure",
            n_jobs=1,
        )

    monkeypatch.setattr(fuzz_mod, "sample_scenario", sample_with_bug)
    result = fuzz_mod.fuzz_run(iterations=3, seed=0)
    assert not result.ok
    assert result.failure is not None
    assert result.failure.rule == "slot-leak"
    assert result.shrunk_config is not None
    assert len(result.shrunk_config.speeds) <= len(result.failing_config.speeds)
