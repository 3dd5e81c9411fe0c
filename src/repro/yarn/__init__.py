"""YARN substrate: containers, ResourceManager, overhead model, heartbeats."""

from repro.yarn.container import Container
from repro.yarn.heartbeat import HeartbeatService
from repro.yarn.resource_manager import ResourceManager

__all__ = ["Container", "HeartbeatService", "ResourceManager"]
