"""Replica placement.

HDFS spreads ``replication`` copies of each block across distinct nodes.
The paper uses the default replication factor 3 and notes that on small
clusters this creates substantial data redundancy (each 12-node worker sees
~25% of the input), which FlexMap exploits for local BU provisioning.

:class:`RandomPlacement` places a whole file from one batched draw, and the
result is draw-for-draw equal to calling ``rng.choice(n, r, replace=False)``
once per block: the same replica tuples, and the generator left in the same
state.  It reads the file's 32-bit draws with one ``rng.integers`` call
(the ``next_uint32`` stream that ``choice`` reads) and redoes per block what
``choice`` does on its Floyd path: Floyd's sampler over ``j = n-r .. n-1``
(no draw for ``j == 0``), then a Fisher-Yates shuffle over ``i = r-1 .. 1``,
each draw bounded to ``[0, j]`` by Lemire's method.  A draw Lemire rejects
is replaced by the stream's next one, as ``choice`` would take it.
``choice`` takes its Floyd path unless ``n > 10_000`` and ``r > n // 50``;
past that the equality does not hold.  ``tests/test_hdfs.py`` pins it
against ``choice`` for the installed numpy.  The per-block work is plain
Python over the drawn integers: a file costs one numpy call, so even a
one-block file costs less than the ``choice`` call it replaces.
"""

from __future__ import annotations

import numpy as np


class RandomPlacement:
    """Random distinct-node placement, closer to real HDFS behaviour."""

    def place(self, num_blocks, node_ids, replication, rng):
        """Replica node-sets for each of ``num_blocks`` blocks."""
        n = len(node_ids)
        r = min(replication, n)
        floyd = range(n - r, n)
        swaps = range(r - 1, 0, -1)
        # Floyd draws nothing for j == 0.
        raws = _uint32_draws(rng, num_blocks * (len(floyd) - (0 in floyd) + len(swaps)))
        pos = 0
        name = node_ids.__getitem__
        out: list[tuple[str, ...]] = []
        for _ in range(num_blocks):
            # Floyd's sampler: draw in [0, j], take j on a repeat.
            picks: list[int] = []
            for j in floyd:
                v = 0
                if j:
                    m = raws[pos] * (j + 1)
                    pos += 1
                    if m & _LOW32 <= j:  # low word below the span: may be rejected
                        m, pos = _lemire_retry(rng, raws, pos, j + 1)
                    v = m >> 32
                picks.append(j if v in picks else v)
            # Fisher-Yates shuffle of the picks: swap i with a draw in [0, i].
            for i in swaps:
                m = raws[pos] * (i + 1)
                pos += 1
                if m & _LOW32 <= i:
                    m, pos = _lemire_retry(rng, raws, pos, i + 1)
                v = m >> 32
                picks[i], picks[v] = picks[v], picks[i]
            out.append(tuple(map(name, picks)))
        return out


_UINT32 = np.dtype(np.uint32)
_LOW32 = 0xFFFFFFFF


def _uint32_draws(rng: np.random.Generator, k: int) -> list[int]:
    """The generator's next ``k`` raw 32-bit draws."""
    return rng.integers(2**32, size=k, dtype=_UINT32).tolist()


def _lemire_retry(
    rng: np.random.Generator, raws: list[int], pos: int, span: int
) -> tuple[int, int]:
    """Settle a bounded draw whose scaled low word fell below ``span``.

    ``raws[pos - 1] * span`` was the candidate.  Lemire's method rejects it
    when its low 32 bits are below ``2**32 % span`` and tries the stream's
    next raw draw for the same span.  ``raws`` holds the draws the caller
    counted on, so each rejection appends the stream's next draw to it,
    which keeps every later draw in stream order.  Returns the accepted
    product and the position after the raw draw it used.
    """
    m = raws[pos - 1] * span
    while m & _LOW32 < 2**32 % span:
        raws += _uint32_draws(rng, 1)
        m = raws[pos] * span
        pos += 1
    return m, pos
