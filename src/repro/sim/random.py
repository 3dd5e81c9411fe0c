"""Seeded random-stream management.

Every stochastic component of the simulator (interference processes,
reduce-placement sampling, data generators, ...) draws from its own named
stream derived from a single root seed, so adding a consumer never perturbs
the draws seen by existing ones and whole experiments replay bit-identically.
:meth:`RandomStreams.child` gives a namespaced view (``"j000/skew"``): the
multi-job service hands one to each job, so job count and order never
perturb another job's draws.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np


class RandomStreams:
    """A family of independent, reproducible ``numpy`` generators.

    >>> rs = RandomStreams(42)
    >>> a = rs.stream("interference").random()
    >>> b = RandomStreams(42).stream("interference").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._prefix = ""

    def child(self, prefix: str) -> "RandomStreams":
        """A view whose stream names are prefixed with ``prefix/``.

        The view shares this family's generators:
        ``child("j000").stream("skew")`` is ``stream("j000/skew")``.
        """
        view = copy.copy(self)
        view._prefix = f"{self._prefix}{prefix}/"
        return view

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls return the *same* generator object, so draws advance
        the stream; use distinct names for independent streams.
        """
        name = self._prefix + name
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive(name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (position reset)."""
        return np.random.default_rng(self._derive(self._prefix + name))

    def _derive(self, name: str) -> np.random.SeedSequence:
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "big")
        return np.random.SeedSequence([self.seed, key])
