"""Deliberately seeded bugs for the checker's mutation self-test.

A checker that never fires is indistinguishable from one that checks
nothing, so each failure class the :class:`~repro.check.InvariantChecker`
claims to catch has a corresponding *mutation* here — a test-only fault
injected into a live run — and ``tests/test_check_mutations.py`` asserts
the checker reports it with a precise diagnostic.

The three mutations:

``double-assign-bu``
    After the first map task launches, its first block unit is re-inserted
    into the locality index behind the AM's back (a bookkeeping bug that
    makes an in-flight BU assignable again).  Caught by ``bu-conservation``
    when a later container takes the BU a second time.
``leak-slot-on-failure``
    On the first node failure, the first container release for the dead
    node is silently dropped (the container is marked released but the
    node's slot is never freed) — the classic crash-path resource leak.
    Caught by ``slot-leak`` at run end.
``skip-heartbeat``
    The AM's heartbeat ticker skips a round number (reports 1, 2, 4, ...),
    as a buggy restart/renumbering would.  Caught by ``heartbeat-order``.

Mutations are installed by wrapping ``rm.register``, so they apply to the
first AM that attaches no matter how the run is driven.  They are never
active unless a test (or a ``ScenarioConfig.mutation`` field) asks for one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.base import ApplicationMaster
    from repro.yarn.resource_manager import ResourceManager

MUTATIONS: tuple[str, ...] = (
    "double-assign-bu",
    "leak-slot-on-failure",
    "skip-heartbeat",
)


def apply_mutation(name: str, rm: "ResourceManager") -> None:
    """Arm the named bug on the next AM registering with ``rm``."""
    if name not in MUTATIONS:
        raise ValueError(f"unknown mutation: {name!r} (have {MUTATIONS})")
    installer = {
        "double-assign-bu": _install_double_assign,
        "leak-slot-on-failure": _install_leak_slot,
        "skip-heartbeat": _install_skip_heartbeat,
    }[name]

    inner_register = rm.register
    state = {"applied": False}

    def register(am, queue: str = "default", weight: float = 1.0) -> None:
        inner_register(am, queue=queue, weight=weight)
        if not state["applied"]:
            state["applied"] = True
            installer(am)

    rm.register = register  # type: ignore[method-assign]


def _find_index(am: "ApplicationMaster"):
    binder = getattr(am, "binder", None)
    if binder is not None:
        return binder.index
    return getattr(am, "index", None)


# ----------------------------------------------------------------------
def _install_double_assign(am: "ApplicationMaster") -> None:
    """Re-insert the first launched task's first BU into the index."""
    inner_launch = am.maps.launch
    state = {"done": False}

    def launch(container, assignment) -> None:
        inner_launch(container, assignment)
        if state["done"]:
            return
        state["done"] = True
        index = _find_index(am)
        block = assignment.split.blocks[0]
        # Bypass put_back on purpose: the bug under simulation is corrupt
        # bookkeeping, not a legitimate failure re-enqueue.
        index._blocks[block.block_id] = block
        index.block_to_node[block.block_id] = set(block.replicas)
        for node in block.replicas:
            index.node_to_block.setdefault(node, set()).add(block.block_id)

    am.maps.launch = launch  # type: ignore[method-assign]


def _install_leak_slot(am: "ApplicationMaster") -> None:
    """Drop the first container release on a failed node."""
    inner_failure = am.on_node_failure

    def on_node_failure(node) -> None:
        inner_release = am.rm.release
        state = {"leaked": False}

        def release(container) -> None:
            if (
                not state["leaked"]
                and container.node is node
                and not container.released
            ):
                state["leaked"] = True
                # The buggy path: mark the container done without freeing
                # the node slot or telling the RM.
                container.released = True
                return
            inner_release(container)

        am.rm.release = release  # type: ignore[method-assign]
        try:
            inner_failure(node)
        finally:
            am.rm.release = inner_release  # type: ignore[method-assign]

    am.on_node_failure = on_node_failure  # type: ignore[method-assign]


def _install_skip_heartbeat(am: "ApplicationMaster") -> None:
    """Make the ticker jump from round 2 straight to round 4."""
    heartbeat = am.heartbeat
    inner_tick = heartbeat._tick
    state = {"skipped": False}

    def _tick() -> None:
        if not state["skipped"] and heartbeat._round == 2:
            state["skipped"] = True
            heartbeat._round += 1  # swallow round 3
        inner_tick()

    heartbeat._tick = _tick  # type: ignore[method-assign]
