"""Job arrival processes for the multi-job cluster service.

Three ways jobs enter the cluster:

* :class:`PoissonArrivals` — an open-loop stream with exponential
  inter-arrival times at ``rate`` jobs/second (the classic M/G/k offered
  load), drawing benchmarks and engines from round-robin mixes;
* :class:`ClosedLoopArrivals` — a fixed multiprogramming level: ``width``
  jobs are in flight at all times, a completion immediately (plus think
  time) admits the next job;
* :class:`TraceArrivals` — replay of an explicit workload trace, one JSONL
  object per submission (see :func:`load_arrival_trace` for the schema).

All processes are deterministic given their inputs; Poisson draws come from
a caller-provided seeded generator so the whole service run replays
bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engines.registry import resolve_engine
from repro.workloads.puma import puma
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class JobRequest:
    """One job submission: when, what, and under which engine/queue."""

    submit_time: float
    workload: WorkloadSpec
    engine: str
    input_mb: float | None = None  # None = workload's Table II small input
    queue: str = "default"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"negative submit time: {self.submit_time}")
        if self.weight <= 0:
            raise ValueError(f"non-positive weight: {self.weight}")


class ArrivalProcess:
    """Produces job submissions; open-loop or completion-driven."""

    kind = "base"

    @property
    def total_jobs(self) -> int:
        """Number of jobs this process will submit over its lifetime."""
        raise NotImplementedError

    def initial(self) -> list[JobRequest]:
        """Submissions known up front, each carrying its submit time."""
        raise NotImplementedError

    def next_on_completion(self, completed: int, now: float) -> JobRequest | None:
        """Closed-loop hook: next admission after the ``completed``-th job
        finishes at ``now``.  Open-loop processes return None."""
        return None


class _MixArrivals(ArrivalProcess):
    """``n_jobs`` submissions drawn from round-robin benchmark/engine mixes.

    The engine cycle advances every job and the benchmark cycle advances
    every ``len(engines)`` jobs, so each benchmark is submitted under every
    engine before moving on — engine comparisons in the SLO report are over
    the same job mix, not disjoint benchmark sets.  ``checks`` are a
    subclass's own ``(bad, message)`` settings checks, fired after the
    ``n_jobs`` check.
    """

    def __init__(
        self,
        n_jobs: int,
        benchmarks: tuple[str, ...],
        engines: tuple[str, ...],
        input_mb: float | None,
        input_scale: float,
        checks: tuple[tuple[bool, str], ...] = (),
    ) -> None:
        if n_jobs < 1:
            raise ValueError(f"need at least one job: {n_jobs}")
        for bad, message in checks:
            if bad:
                raise ValueError(message)
        if not engines:
            raise ValueError("need at least one engine")
        if input_scale <= 0:
            raise ValueError(f"non-positive input scale: {input_scale}")
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        self.n_jobs = n_jobs
        self.benchmarks = tuple(puma(b) for b in benchmarks)
        self.engines = tuple(engines)
        self.input_mb = input_mb
        self.input_scale = input_scale

    @property
    def total_jobs(self) -> int:
        return self.n_jobs

    def _request(self, index: int, submit_time: float) -> JobRequest:
        """The ``index``-th submission of the mix.  Its input is the
        explicit ``input_mb``, else the workload's Table II small input
        times ``input_scale``."""
        workload = self.benchmarks[(index // len(self.engines)) % len(self.benchmarks)]
        input_mb = self.input_mb
        if input_mb is None:
            input_mb = workload.small_gb * 1024.0 * self.input_scale
        return JobRequest(
            submit_time=submit_time,
            workload=workload,
            engine=self.engines[index % len(self.engines)],
            input_mb=input_mb,
        )


class PoissonArrivals(_MixArrivals):
    """Open-loop Poisson stream of ``n_jobs`` submissions."""

    kind = "poisson"

    def __init__(
        self,
        rate: float,
        n_jobs: int,
        rng: np.random.Generator,
        benchmarks: tuple[str, ...] = ("WC", "GR", "HR", "HM"),
        engines: tuple[str, ...] = ("flexmap", "hadoop-64"),
        input_mb: float | None = None,
        input_scale: float = 1.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"non-positive arrival rate: {rate}")
        super().__init__(n_jobs, benchmarks, engines, input_mb, input_scale)
        self.rate = rate
        # Draw the whole arrival pattern up front so the stream is fixed by
        # the generator state, independent of simulation interleaving.
        gaps = rng.exponential(1.0 / rate, size=n_jobs)
        self._times = np.cumsum(gaps)

    def initial(self) -> list[JobRequest]:
        return [self._request(i, float(t)) for i, t in enumerate(self._times)]


class ClosedLoopArrivals(_MixArrivals):
    """Fixed multiprogramming level: admit a job per completion."""

    kind = "closed"

    def __init__(
        self,
        n_jobs: int,
        width: int = 4,
        think_time_s: float = 0.0,
        benchmarks: tuple[str, ...] = ("WC", "GR", "HR", "HM"),
        engines: tuple[str, ...] = ("flexmap", "hadoop-64"),
        input_mb: float | None = None,
        input_scale: float = 1.0,
    ) -> None:
        super().__init__(
            n_jobs, benchmarks, engines, input_mb, input_scale,
            checks=(
                (width < 1, f"non-positive width: {width}"),
                (think_time_s < 0, f"negative think time: {think_time_s}"),
            ),
        )
        self.width = min(width, n_jobs)
        self.think_time_s = think_time_s
        self._issued = 0

    def initial(self) -> list[JobRequest]:
        first = [self._request(i, 0.0) for i in range(self.width)]
        self._issued = len(first)
        return first

    def next_on_completion(self, completed: int, now: float) -> JobRequest | None:
        if self._issued >= self.n_jobs:
            return None
        request = self._request(self._issued, now + self.think_time_s)
        self._issued += 1
        return request


class TraceArrivals(ArrivalProcess):
    """Replay an explicit list of :class:`JobRequest` submissions."""

    kind = "trace"

    def __init__(self, requests: list[JobRequest]) -> None:
        if not requests:
            raise ValueError("empty arrival trace")
        self.requests = sorted(requests, key=lambda r: r.submit_time)

    @property
    def total_jobs(self) -> int:
        return len(self.requests)

    def initial(self) -> list[JobRequest]:
        return list(self.requests)


def load_arrival_trace(path: str | Path) -> TraceArrivals:
    """Parse a JSONL workload file into a :class:`TraceArrivals` process.

    Schema (one JSON object per line; ``#``-prefixed and blank lines are
    skipped)::

        {"t": 12.5, "benchmark": "WC", "engine": "flexmap",
         "input_mb": 2048.0, "queue": "batch", "weight": 2.0}

    ``t`` (submit time, seconds) and ``benchmark`` (PUMA abbreviation) are
    required; ``engine`` defaults to ``flexmap``, ``input_mb`` to the
    benchmark's Table II small input, ``queue``/``weight`` to the capacity
    scheduler defaults.  A malformed line, an unknown benchmark or an
    unregistered engine raises ``ValueError("path:line: ...")``.
    """
    requests: list[JobRequest] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or "t" not in obj or "benchmark" not in obj:
                raise ValueError(f"{path}:{lineno}: need 't' and 'benchmark' fields")
            engine = str(obj.get("engine", "flexmap"))
            try:
                workload = puma(str(obj["benchmark"]))
                resolve_engine(engine)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
            requests.append(
                JobRequest(
                    submit_time=float(obj["t"]),
                    workload=workload,
                    engine=engine,
                    input_mb=(
                        float(obj["input_mb"]) if obj.get("input_mb") is not None else None
                    ),
                    queue=str(obj.get("queue", "default")),
                    weight=float(obj.get("weight", 1.0)),
                )
            )
    return TraceArrivals(requests)


#: Registry used by the CLI.
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "closed", "trace")
