"""Shared runtime wiring for a GS3 protocol run.

A :class:`Gs3Runtime` bundles everything the per-node programs need:
the configuration, the discrete-event simulator, the network and radio,
the channel reservations, the IL lattice anchored at the big
node, and the trace sink.  Node objects receive the runtime at
construction and register themselves in :attr:`nodes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..geometry import HexLattice, Vec2
from ..net import (
    ChannelFaultConfig,
    ChannelReservations,
    LocalChannel,
    Network,
    NodeId,
    Radio,
)
from ..sim import RngStreams, Simulator, Tracer
from .config import GS3Config

if TYPE_CHECKING:  # pragma: no cover
    from .gs3s import Gs3StaticNode

__all__ = ["Gs3Runtime"]


@dataclass
class Gs3Runtime:
    """Everything shared by the node programs of one protocol run."""

    config: GS3Config
    sim: Simulator
    network: Network
    radio: Radio
    channel: ChannelReservations
    tracer: Tracer
    rng: RngStreams
    lattice: HexLattice
    nodes: Dict[NodeId, "Gs3StaticNode"] = field(default_factory=dict)

    @cached_property
    def gr_direction(self) -> Vec2:
        """The global reference direction as a unit vector (computed
        once: the configuration is fixed for the run)."""
        return Vec2.unit(self.config.gr_orientation)

    def trace(self, category: str, node: NodeId, **details) -> None:
        """Emit a trace record stamped with the current virtual time."""
        self.tracer.emit(self.sim.now, category, node=node, **details)

    @staticmethod
    def build(
        network: Network,
        config: GS3Config,
        seed: int = 0,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
        origin: Optional[Vec2] = None,
        channel_submit: Optional[Callable[[tuple], None]] = None,
        max_events: Optional[int] = None,
    ) -> "Gs3Runtime":
        """Construct a runtime around an existing network.

        The IL lattice is anchored at the big node's position with the
        configured ``GR`` orientation, mirroring the paper's step 1
        ("cover the system with a hexagonal virtual structure such that
        the big node is at the geometric center of some cell").

        ``channel_faults`` installs an adversarial channel model on the
        radio; combine it with ``config.broadcast_loss == 0`` (Bernoulli
        loss belongs inside the fault model when both are wanted).

        A shard worker also passes ``origin`` (the deployment's big
        position: its stripe may not hold the big node),
        ``channel_submit`` (reservations go to the coordinator's
        mediator, not a :class:`LocalChannel`) and ``max_events``.
        """
        sim = Simulator()
        if max_events is not None:
            sim.max_events = max_events
        tracer = Tracer(keep_records=keep_trace_records)
        rng = RngStreams(seed)
        radio = Radio(
            network,
            sim,
            tracer=tracer,
            rng=rng,
            broadcast_loss=config.broadcast_loss,
            hop_latency=config.hop_latency,
            faults=(
                channel_faults.build(rng)
                if channel_faults is not None
                else None
            ),
        )
        channel = (
            LocalChannel(sim, config.hop_latency)
            if channel_submit is None
            else ChannelReservations(sim, channel_submit)
        )
        lattice = HexLattice(
            origin=network.big_node.position if origin is None else origin,
            spacing=config.lattice_spacing,
            orientation=config.gr_orientation,
        )
        return Gs3Runtime(
            config=config,
            sim=sim,
            network=network,
            radio=radio,
            channel=channel,
            tracer=tracer,
            rng=rng,
            lattice=lattice,
        )
