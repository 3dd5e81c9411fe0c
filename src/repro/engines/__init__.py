"""Pluggable map-execution engines and the registry that names them.

This package is the single home of engine definitions.  An engine is an
:class:`~repro.engines.base.ApplicationMaster` subclass plus the
configuration that names it in the comparison set, registered with the
:func:`~repro.engines.registry.register_engine` decorator; the CLI, the
experiment runner, the multi-job service, and the correctness harness all
resolve engines through :data:`~repro.engines.registry.ENGINES` /
:func:`~repro.engines.registry.resolve_engine`, so a registered engine
appears everywhere automatically (see README, "Authoring a new engine").
Importing this package imports the built-in engine modules (stock,
SkewTune, FlexMap, in that order), which fills the registry.

Layering: ``repro.engines`` sits above ``repro.sim``/``repro.hdfs``/
``repro.cluster``/``repro.yarn``/``repro.mapreduce`` and below
``repro.experiments``/``repro.multijob`` — it never imports either of
those (enforced by the layering lint in ``tests/test_api_hygiene.py``).
"""

from repro.engines.base import (
    AMConfig,
    ApplicationMaster,
    MapAssignment,
    MapPhaseDriver,
    ReducePhaseDriver,
    TraceRecorder,
)
from repro.engines.driver import RunResult, compare_engines, run_job
from repro.engines.registry import (
    ENGINES,
    EngineSpec,
    engine_names,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.engines.speculation import SpeculationConfig, SpeculationManager

# Importing the engine modules registers the built-in comparison set; the
# import order is the registration order of ENGINES.
from repro.engines.stock import StockHadoopAM  # isort: skip
from repro.engines.skewtune import SkewTuneAM, SkewTuneConfig  # isort: skip
from repro.engines.flexmap import FlexMapAM  # isort: skip

__all__ = [
    "AMConfig",
    "ApplicationMaster",
    "MapAssignment",
    "MapPhaseDriver",
    "ReducePhaseDriver",
    "TraceRecorder",
    "ENGINES",
    "EngineSpec",
    "engine_names",
    "register_engine",
    "resolve_engine",
    "unregister_engine",
    "RunResult",
    "run_job",
    "compare_engines",
    "FlexMapAM",
    "StockHadoopAM",
    "SkewTuneAM",
    "SkewTuneConfig",
    "SpeculationConfig",
    "SpeculationManager",
]
