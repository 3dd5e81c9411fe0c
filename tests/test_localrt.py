"""Tests for the local executable runtime: real results, elastic sizing."""

import numpy as np
import pytest

from repro.localrt.elastic import ElasticSplitter, UniformSplitter
from repro.localrt.functions import (
    grep_job,
    histogram_ratings_job,
    inverted_index_job,
    run_combiner,
    wordcount_job,
)
from repro.localrt.runtime import LocalRuntime, WorkerSpec
from repro.workloads.datagen import (
    generate,
    netflix_ratings,
    teragen_records,
    wikipedia_lines,
)


def make_bus(lines, bu_records=50):
    return [lines[i : i + bu_records] for i in range(0, len(lines), bu_records)]


def workers(speeds):
    return [WorkerSpec(f"w{i}", s) for i, s in enumerate(speeds)]


# ---------------------------------------------------------------------------
# Data generators
# ---------------------------------------------------------------------------
def test_wikipedia_lines_zipfian():
    rng = np.random.default_rng(0)
    lines = wikipedia_lines(2000, rng)
    assert len(lines) == 2000
    counts = {}
    for line in lines:
        for w in line.split():
            counts[w] = counts.get(w, 0) + 1
    top = max(counts.values())
    assert top / sum(counts.values()) > 0.1  # heavy head


def test_netflix_ratings_format():
    rng = np.random.default_rng(0)
    lines = netflix_ratings(100, rng)
    for line in lines:
        user, movie, rating = line.split(",")
        assert 1 <= int(rating) <= 5


def test_teragen_records_format():
    rng = np.random.default_rng(0)
    recs = teragen_records(10, rng)
    assert all("\t" in r for r in recs)


def test_generate_dispatch():
    rng = np.random.default_rng(0)
    assert len(generate("Wikipedia", 5, rng)) == 5
    with pytest.raises(KeyError):
        generate("Nope", 5, rng)


def test_generators_deterministic():
    a = wikipedia_lines(50, np.random.default_rng(3))
    b = wikipedia_lines(50, np.random.default_rng(3))
    assert a == b


# ---------------------------------------------------------------------------
# Correctness of real execution
# ---------------------------------------------------------------------------
def test_wordcount_counts_are_exact():
    lines = ["a b a", "b c", "a"]
    rt = LocalRuntime(workers([1.0, 2.0]), num_reducers=2)
    res = rt.run(wordcount_job(), make_bus(lines, bu_records=1), UniformSplitter(1))
    assert res.output == {"a": 3, "b": 2, "c": 1}


def test_wordcount_output_independent_of_splitter():
    rng = np.random.default_rng(1)
    lines = wikipedia_lines(400, rng)
    bus = make_bus(lines, 20)
    rt = LocalRuntime(workers([1.0, 1.0, 3.0]))
    uniform = rt.run(wordcount_job(), bus, UniformSplitter(4))
    elastic = rt.run(wordcount_job(), bus, ElasticSplitter())
    assert uniform.output == elastic.output


def test_grep_counts_matches():
    lines = ["xx w000 yy", "zz", "w0001"]
    rt = LocalRuntime(workers([1.0]))
    res = rt.run(grep_job(), make_bus(lines, 1), UniformSplitter(1))
    assert res.output == {"match": 2}


def test_histogram_ratings_buckets():
    lines = ["1,2,5", "3,4,5", "5,6,1"]
    rt = LocalRuntime(workers([1.0]))
    res = rt.run(histogram_ratings_job(), make_bus(lines, 1), UniformSplitter(1))
    assert res.output == {"rating-5": 2, "rating-1": 1}


def test_inverted_index_postings():
    lines = ["0|apple banana", "1|apple"]
    rt = LocalRuntime(workers([1.0]))
    res = rt.run(inverted_index_job(), make_bus(lines, 1), UniformSplitter(1))
    assert res.output["apple"] == ["0", "1"]
    assert res.output["banana"] == ["0"]


def test_combiner_sums_per_key():
    assert sorted(run_combiner([("a", 1), ("b", 2), ("a", 3)])) == [("a", 4), ("b", 2)]


def test_terasort_produces_total_order(monkeypatch):
    from repro.localrt import functions
    from repro.localrt.functions import terasort_job

    monkeypatch.setattr(functions, "TERASORT_BUCKETS", 8)
    rng = np.random.default_rng(4)
    recs = teragen_records(500, rng)
    rt = LocalRuntime(workers([1.0, 2.0]), num_reducers=8)
    res = rt.run(terasort_job(), make_bus(recs, 25), UniformSplitter(2))
    merged = []
    for bucket in sorted(res.output):
        chunk = res.output[bucket]
        assert chunk == sorted(chunk)
        merged.extend(chunk)
    assert merged == sorted(recs)
    assert len(merged) == 500


# ---------------------------------------------------------------------------
# Timing / elasticity behaviour
# ---------------------------------------------------------------------------
def test_every_bu_processed_exactly_once():
    lines = [f"line {i}" for i in range(300)]
    bus = make_bus(lines, 10)
    rt = LocalRuntime(workers([1.0, 2.0, 4.0]))
    res = rt.run(wordcount_job(), bus, ElasticSplitter())
    assert sum(t.num_records for t in res.maps()) == 300


def test_elastic_assigns_more_to_fast_worker():
    rng = np.random.default_rng(2)
    lines = wikipedia_lines(3000, rng)
    bus = make_bus(lines, 10)
    rt = LocalRuntime(workers([1.0, 4.0]), overhead_s=2.0, records_per_s=100.0)
    res = rt.run(wordcount_job(), bus, ElasticSplitter())
    per_worker = res.records_per_worker()
    assert per_worker["w1"] > per_worker["w0"] * 1.5


def test_elastic_beats_uniform_on_heterogeneous_workers():
    rng = np.random.default_rng(2)
    lines = wikipedia_lines(4000, rng)
    bus = make_bus(lines, 10)
    rt = LocalRuntime(workers([1.0, 1.0, 4.0]), overhead_s=2.0, records_per_s=100.0)
    uniform = rt.run(wordcount_job(), bus, UniformSplitter(8))
    elastic = rt.run(wordcount_job(), bus, ElasticSplitter())
    assert elastic.map_phase_s < uniform.map_phase_s
    assert elastic.efficiency(3) > uniform.efficiency(3) * 0.95


def test_tiny_uniform_tasks_pay_overhead():
    rng = np.random.default_rng(2)
    lines = wikipedia_lines(2000, rng)
    bus = make_bus(lines, 10)
    rt = LocalRuntime(workers([1.0, 1.0]), overhead_s=2.0, records_per_s=100.0)
    tiny = rt.run(wordcount_job(), bus, UniformSplitter(1))
    coarse = rt.run(wordcount_job(), bus, UniformSplitter(10))
    assert coarse.map_phase_s < tiny.map_phase_s


def test_task_records_have_sane_timing():
    lines = [f"r {i}" for i in range(100)]
    rt = LocalRuntime(workers([1.0, 2.0]))
    res = rt.run(wordcount_job(), make_bus(lines, 10), UniformSplitter(2))
    for t in res.tasks:
        assert t.end > t.start
        assert 0.0 <= t.productivity < 1.0
    assert res.jct_s >= res.map_phase_s


def test_runtime_validation():
    with pytest.raises(ValueError):
        LocalRuntime([])
    with pytest.raises(ValueError):
        LocalRuntime(workers([1.0]), overhead_s=-1.0)
    with pytest.raises(ValueError):
        LocalRuntime(workers([1.0, 1.0])[0:1] * 2)  # duplicate ids
    with pytest.raises(ValueError):
        WorkerSpec("w", 0.0)
    rt = LocalRuntime(workers([1.0]))
    with pytest.raises(ValueError):
        rt.run(wordcount_job(), [], UniformSplitter(1))
    with pytest.raises(ValueError):
        UniformSplitter(0)


def test_first_elastic_tasks_are_one_bu():
    lines = [f"r {i}" for i in range(500)]
    bus = make_bus(lines, 10)
    rt = LocalRuntime(workers([1.0, 2.0]))
    res = rt.run(wordcount_job(), bus, ElasticSplitter())
    first_by_worker = {}
    for t in sorted(res.maps(), key=lambda t: t.start):
        first_by_worker.setdefault(t.worker, t)
    assert all(t.num_bus == 1 for t in first_by_worker.values())
