"""Container: a granted execution slot bound to a particular node.

Mirrors YARN semantics the paper relies on: the AM requests containers with
resource demands; the RM grants them *bound to specific nodes*; only then
does FlexMap's Late Task Binding know the host speed and can size the task.
"""

from __future__ import annotations

from repro.cluster.node import Node


class Container:
    """One granted container on a worker node."""

    def __init__(self, node: Node, am=None, reoffer: bool = False) -> None:
        self.node = node
        self.released = False
        # The ApplicationMaster the offer was addressed to; the RM charges
        # this app's slot accounting on occupy/release.  None for containers
        # constructed outside an RM offer round (tests, ad-hoc drivers).
        self.am = am
        # True when a checked RM re-offers the slot to an AM it closed for
        # the round; the AM must decline, and does not count the offer.
        self.reoffer = reoffer

    @property
    def node_id(self) -> str:
        return self.node.node_id
