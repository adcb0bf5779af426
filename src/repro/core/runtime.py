"""Shared runtime wiring for a GS3 protocol run.

A :class:`Gs3Runtime` bundles everything the per-node programs need:
the configuration, the discrete-event simulator, the network and radio,
the channel reservations, the IL lattice anchored at the big
node, and the trace sink.  Node objects receive the runtime at
construction and register themselves in :attr:`nodes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from typing import Optional

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

    @property
    def gr_direction(self) -> Vec2:
        """The global reference direction as a unit vector."""
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
    ) -> "Gs3Runtime":
        """Construct a runtime around an existing network.

        The IL lattice is anchored at the big node's position with the
        configured ``GR`` orientation, mirroring the paper's step 1
        ("cover the system with a hexagonal virtual structure such that
        the big node is at the geometric center of some cell").

        ``channel_faults`` installs an adversarial channel model on the
        radio; combine it with ``config.broadcast_loss == 0`` (Bernoulli
        loss belongs inside the fault model when both are wanted).
        """
        sim = Simulator()
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
        channel = LocalChannel(sim, config.hop_latency)
        lattice = HexLattice(
            origin=network.big_node.position,
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
