"""Real map/reduce functions for the local runtime.

Each job is a pair of plain Python functions matching the classic
MapReduce signatures: ``map_fn(record) -> [(key, value), ...]`` and
``reduce_fn(key, [values]) -> (key, result)``, plus an optional combiner
run per map task (all the PUMA text benchmarks use one).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

MapFn = Callable[[str], Iterable[tuple[str, object]]]
ReduceFn = Callable[[str, list], tuple[str, object]]

#: The token :func:`grep_job` matches (a frequent word of the generated
#: Wikipedia-like text).
GREP_PATTERN = "w000"
#: Key-range buckets, one per reducer, of :func:`terasort_job`.
TERASORT_BUCKETS = 16


@dataclass(frozen=True)
class JobFunctions:
    """A runnable MapReduce program."""

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    use_combiner: bool = True


def _sum_reduce(key: str, values: list) -> tuple[str, object]:
    return key, sum(values)


def wordcount_job() -> JobFunctions:
    """Count word occurrences (PUMA WC)."""

    def map_fn(line: str):
        return [(w, 1) for w in line.split()]

    return JobFunctions("wordcount", map_fn, _sum_reduce)


def grep_job() -> JobFunctions:
    """Count lines containing ``GREP_PATTERN`` (PUMA GR)."""

    def map_fn(line: str):
        return [("match", 1)] if GREP_PATTERN in line else []

    return JobFunctions("grep", map_fn, _sum_reduce)


def histogram_ratings_job() -> JobFunctions:
    """Bucket Netflix-style ``user,movie,rating`` lines by rating (PUMA HR)."""

    def map_fn(line: str):
        parts = line.rsplit(",", 1)
        if len(parts) != 2:
            return []
        return [(f"rating-{parts[1]}", 1)]

    return JobFunctions("histogram-ratings", map_fn, _sum_reduce)


def inverted_index_job() -> JobFunctions:
    """word -> sorted set of source-block ids (PUMA II).

    Records are tagged ``blockid|text`` by the runtime so the index has a
    document dimension.
    """

    def map_fn(record: str):
        doc, _, text = record.partition("|")
        return [(w, doc) for w in text.split()]

    def reduce_fn(key: str, values: list):
        return key, sorted(set(values))

    # Set-valued postings cannot be summed by the generic combiner.
    return JobFunctions("inverted-index", map_fn, reduce_fn, use_combiner=False)


def terasort_job() -> JobFunctions:
    """Range-partitioned sort of TeraGen-style ``key\\tpayload`` records
    (PUMA TS).  Each of ``TERASORT_BUCKETS`` reducers sorts one key-range
    bucket; concatenating the buckets in key order yields a total order.
    """
    span = 2**32

    def map_fn(record: str):
        key = int(record.split("\t", 1)[0])
        bucket = min(TERASORT_BUCKETS - 1, key * TERASORT_BUCKETS // span)
        return [(f"b{bucket:04d}", record)]

    def reduce_fn(key: str, values: list):
        return key, sorted(values)

    return JobFunctions("tera-sort", map_fn, reduce_fn, use_combiner=False)


def run_combiner(pairs: list[tuple[str, object]]) -> list[tuple[str, object]]:
    """Per-task combine: sum values per key (valid for counting jobs)."""
    acc: dict[str, float] = defaultdict(int)
    for k, v in pairs:
        acc[k] += v
    return list(acc.items())
