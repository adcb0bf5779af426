"""Wireless network substrate: nodes, radio, channel, deployments."""

from .channel import (
    ChannelLease,
    ChannelMediator,
    ChannelReservations,
    LocalChannel,
)
from .deployment import (
    Deployment,
    carve_gaps,
    deployment_from_spec,
    grid_jitter,
    poisson_disk,
    rt_gap_cells,
    uniform_disk,
)
from .energy import EnergyConfig, EnergyTracker
from .faults import (
    ChannelFaultConfig,
    ChannelFaultModel,
    GilbertElliottConfig,
    JamWindow,
)
from .node import NodeId, PhysicalNode
from .radio import DeliveryError, Radio
from .topology import Network

__all__ = [
    "ChannelLease",
    "ChannelMediator",
    "ChannelReservations",
    "LocalChannel",
    "Deployment",
    "carve_gaps",
    "deployment_from_spec",
    "grid_jitter",
    "poisson_disk",
    "rt_gap_cells",
    "uniform_disk",
    "EnergyConfig",
    "EnergyTracker",
    "ChannelFaultConfig",
    "ChannelFaultModel",
    "GilbertElliottConfig",
    "JamWindow",
    "NodeId",
    "PhysicalNode",
    "DeliveryError",
    "Radio",
    "Network",
]
