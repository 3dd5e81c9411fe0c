"""Synthetic data generators standing in for the paper's inputs.

Table II uses Wikipedia text, Netflix ratings and TeraGen records.  These
generators produce records with the same statistical character (Zipfian
word frequencies, a small movie catalogue with skewed popularity, uniform
random sort keys) for the local executable runtime and the examples.
"""

from __future__ import annotations

import numpy as np

#: A small closed vocabulary is enough: Zipf rank-frequency is what matters
#: for wordcount/inverted-index behaviour, not the actual tokens.
_VOCAB_SIZE = 5000
#: Words per generated text line, and the Zipf exponent of their ranks.
WORDS_PER_LINE = 12
ZIPF_A = 1.3
#: Size of the generated movie catalogue.
NUM_MOVIES = 500


def _vocabulary() -> list[str]:
    return [f"w{i:04d}" for i in range(_VOCAB_SIZE)]


def wikipedia_lines(num_lines: int, rng: np.random.Generator) -> list[str]:
    """Zipf-distributed text lines, Wikipedia-like for counting purposes."""
    if num_lines < 0:
        raise ValueError(f"negative line count: {num_lines}")
    vocab = _vocabulary()
    ranks = rng.zipf(ZIPF_A, size=(num_lines, WORDS_PER_LINE))
    ranks = np.minimum(ranks, _VOCAB_SIZE) - 1
    return [" ".join(vocab[r] for r in row) for row in ranks]


def netflix_ratings(num_lines: int, rng: np.random.Generator) -> list[str]:
    """``user,movie,rating`` lines with skewed movie popularity and the
    1-5 star ratings the histogram benchmarks bucket."""
    if num_lines < 0:
        raise ValueError(f"negative line count: {num_lines}")
    users = rng.integers(1, 100_000, size=num_lines)
    movie_ranks = np.minimum(rng.zipf(1.2, size=num_lines), NUM_MOVIES)
    # Ratings concentrated on 3-4 stars like the real dataset.
    ratings = rng.choice([1, 2, 3, 4, 5], p=[0.05, 0.10, 0.30, 0.35, 0.20], size=num_lines)
    return [f"{u},{m},{r}" for u, m, r in zip(users, movie_ranks, ratings)]


def teragen_records(num_lines: int, rng: np.random.Generator) -> list[str]:
    """10-byte random key + payload, the TeraSort input format (abridged)."""
    if num_lines < 0:
        raise ValueError(f"negative line count: {num_lines}")
    keys = rng.integers(0, 2**32, size=num_lines)
    return [f"{k:010d}\tAAAAAAAAAA" for k in keys]


GENERATORS = {
    "Wikipedia": wikipedia_lines,
    "Netflix": netflix_ratings,
    "TeraGen": teragen_records,
}


def generate(source: str, num_lines: int, rng: np.random.Generator) -> list[str]:
    """Dispatch on a Table II data-source name."""
    try:
        gen = GENERATORS[source]
    except KeyError:
        raise KeyError(f"unknown data source {source!r}; choose from {sorted(GENERATORS)}") from None
    return gen(num_lines, rng)
