"""Engine registry: the single home of named engine configurations.

An *engine* is an ApplicationMaster class plus the configuration that makes
it a member of the paper's comparison set (block size, speculation policy,
sizing knobs).  Engines register themselves with the
:func:`register_engine` decorator::

    @register_engine("hadoop-64", block_size_mb=64.0)
    class StockHadoopAM(ApplicationMaster):
        ...

and every consumer — the CLI, the experiment runner, the multi-job
service, the correctness harness — resolves names through this registry,
so a newly registered engine appears everywhere automatically.  The
built-in comparison set matches the paper:

* ``hadoop-64`` / ``hadoop-128`` — stock Hadoop with LATE speculation at
  the default and industry-recommended block sizes;
* ``hadoop-nospec-64`` — speculation disabled (Fig. 8's "No Speculation");
* ``skewtune-64`` — the SkewTune baseline;
* ``flexmap`` — elastic tasks (8 MB BUs).

The built-ins register when :mod:`repro.engines` imports their modules,
which Python does before any ``repro.engines.*`` submodule is used, so
:data:`ENGINES` is a plain dict that is already complete on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster

AMFactory = Callable[..., "ApplicationMaster"]


@dataclass(frozen=True)
class EngineSpec:
    """A named engine configuration in the comparison set."""

    name: str
    block_size_mb: float
    factory: AMFactory
    kwargs: dict = field(default_factory=dict)

    def build(
        self, sim, cluster, rm, namenode, job, streams, config, extra: dict | None = None
    ) -> "ApplicationMaster":
        """Instantiate this engine's ApplicationMaster.

        ``extra`` merges caller-provided constructor kwargs over the spec's
        own (the multi-job service injects a shared SpeedMonitor this way).
        """
        kwargs = dict(self.kwargs)
        if extra:
            kwargs.update(extra)
        return self.factory(
            sim, cluster, rm, namenode, job, streams, config, **kwargs
        )


#: The global registry.  Mutated only through :func:`register_engine`.
ENGINES: dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    block_size_mb: float | None = None,
    *,
    block_size: Callable[[], float] | None = None,
    **kwargs,
) -> Callable[[AMFactory], AMFactory]:
    """Class decorator registering an engine under ``name``.

    ``block_size_mb`` is the engine's split/BU granularity; alternatively
    pass ``block_size=`` a zero-argument callable evaluated at decoration
    time (used by FlexMap, whose BU size lives in ``SizingConfig``).  Extra
    keyword arguments become the spec's constructor kwargs.  The decorator
    may be stacked to register one class under several names::

        @register_engine("hadoop-64", block_size_mb=64.0)
        @register_engine("hadoop-128", block_size_mb=128.0)
        class StockHadoopAM(...): ...

    Re-registering an existing name raises ``ValueError`` — engines are
    global, and a silent overwrite would change what every consumer runs.
    """
    if (block_size_mb is None) == (block_size is None):
        raise ValueError("pass exactly one of block_size_mb or block_size")
    size = block_size() if block_size is not None else block_size_mb
    # Fail at the call site already, not only when the decorator is applied.
    if name in ENGINES:
        raise ValueError(f"engine {name!r} already registered")

    def decorator(factory: AMFactory) -> AMFactory:
        if name in ENGINES:
            raise ValueError(f"engine {name!r} already registered")
        ENGINES[name] = EngineSpec(name, size, factory, kwargs)
        return factory

    return decorator


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests registering throwaway engines)."""
    ENGINES.pop(name, None)


def engine_names() -> list[str]:
    """Sorted names of every registered engine."""
    return sorted(ENGINES)


def resolve_engine(engine: "str | EngineSpec") -> EngineSpec:
    """Resolve an engine given by name or as an explicit spec.

    Unknown names raise ``KeyError`` listing the registered engines.
    """
    if isinstance(engine, EngineSpec):
        return engine
    try:
        return ENGINES[engine]
    except KeyError:
        raise KeyError(
            f"unknown engine {engine!r}; registered: {engine_names()}"
        ) from None
