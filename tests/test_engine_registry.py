"""The engine registry: registration, resolution, and builtin population."""

import pytest

from repro.engines.base import ApplicationMaster
from repro.engines.registry import (
    ENGINES,
    EngineSpec,
    engine_names,
    register_engine,
    resolve_engine,
)

BUILTINS = {"hadoop-64", "hadoop-128", "hadoop-nospec-64", "skewtune-64", "flexmap"}


def test_builtins_registered_lazily():
    assert BUILTINS <= set(engine_names())
    for name in BUILTINS:
        assert isinstance(ENGINES[name], EngineSpec)
        assert ENGINES[name].name == name


def test_builtins_register_in_import_order():
    # Importing repro.engines loads stock, SkewTune, then FlexMap; every
    # consumer that iterates ENGINES sees this order.
    assert [name for name in ENGINES if name in BUILTINS] == [
        "hadoop-64", "hadoop-128", "hadoop-nospec-64", "skewtune-64", "flexmap",
    ]


def test_resolve_engine_accepts_name_and_spec():
    spec = resolve_engine("flexmap")
    assert spec.name == "flexmap"
    assert resolve_engine(spec) is spec


def test_resolve_engine_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="flexmap"):
        resolve_engine("no-such-engine")


def test_register_engine_decorator_and_unregister():
    @register_engine("test-hadoop-96", block_size_mb=96.0)
    class TinyAM(ApplicationMaster):
        """Registry-test engine; never built."""

        def prepare_maps(self):  # pragma: no cover - never driven
            """No-op."""

        def select_map(self, container):  # pragma: no cover - never driven
            """No-op."""
            return None

        def maps_pending(self):  # pragma: no cover - never driven
            """No-op."""
            return False

    try:
        spec = resolve_engine("test-hadoop-96")
        assert spec.block_size_mb == 96.0
        assert spec.factory is TinyAM
        assert "test-hadoop-96" in engine_names()
    finally:
        ENGINES.pop("test-hadoop-96")
    assert "test-hadoop-96" not in engine_names()


def test_register_engine_rejects_duplicates():
    with pytest.raises(ValueError, match="flexmap"):
        register_engine("flexmap", block_size_mb=8.0)


def test_register_engine_requires_a_block_size():
    with pytest.raises(TypeError):
        register_engine("test-bad")


def test_extra_kwargs_flow_into_spec():
    spec = resolve_engine("hadoop-nospec-64")
    assert spec.kwargs == {"speculate": False}
