"""Simulation driver for dynamic (and mobile) networks.

``Gs3DynamicSimulation`` extends the static driver with the
perturbation API of the paper's system model — node joins, leaves,
deaths (energy-driven or scheduled), state corruptions, and movements —
plus convergence measurement for the healing experiments.
"""

from __future__ import annotations

from typing import Any, Optional, Type

from ..net import (
    ChannelFaultConfig,
    Deployment,
    EnergyConfig,
    EnergyTracker,
    Network,
    NodeId,
)
from ..sim import PeriodicTimer
from .config import GS3Config
from .driver_ops import PerturbationOps
from .gs3d import Gs3DynamicNode
from .gs3s import Gs3StaticNode
from .simulation import Gs3Simulation
from .state import NodeStatus

__all__ = ["Gs3DynamicSimulation"]


class Gs3DynamicSimulation(Gs3Simulation, PerturbationOps):
    """A protocol run in a dynamic / mobile network.

    The perturbation methods come from
    :class:`~repro.core.driver_ops.PerturbationOps`; a sharded run
    shares them.  Energy-driven death is this driver's alone.
    """

    def __init__(
        self,
        network: Network,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3DynamicNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ):
        super().__init__(
            network,
            config,
            seed=seed,
            node_class=node_class,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )
        self.energy: Optional[EnergyTracker] = None
        self._energy_timer: Optional[PeriodicTimer] = None

    @classmethod
    def from_deployment(
        cls,
        deployment: Deployment,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3DynamicNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ) -> "Gs3DynamicSimulation":
        network = deployment.build_network(
            max_range=config.recommended_max_range
        )
        return cls(
            network,
            config,
            seed=seed,
            node_class=node_class,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )

    def _drive(self, kind: str, desc: tuple) -> Any:
        result = super()._drive(kind, desc)
        if self.energy is not None and kind in ("revive", "join"):
            # A revived or joined node starts on a full battery.
            self.energy.add_node(desc[0] if kind == "revive" else result)
        return result

    # -- energy-driven death ------------------------------------------------

    def attach_energy(
        self,
        energy_config: EnergyConfig,
        tick_interval: Optional[float] = None,
    ) -> EnergyTracker:
        """Drain node energy each tick; nodes die at zero.

        Heads drain faster than associates (``EnergyConfig``), which is
        the premise behind cell shift: candidate sets near the IL are
        exhausted first, roughly simultaneously across cells.
        """
        interval = tick_interval or self.config.heartbeat_interval
        self.energy = EnergyTracker(energy_config)
        for node_id in self.network.node_ids():
            self.energy.add_node(node_id)

        def drain_all() -> None:
            assert self.energy is not None
            # Every node drains on the roles of one instant; the deaths
            # follow as driver operations.
            dead = [
                node.node_id
                for node in list(self.network.alive_nodes())
                if not node.is_big  # the big node is mains-powered
                and self.energy.drain_role(
                    node.node_id, self._role_of(node.node_id), dt=interval
                )
            ]
            for node_id in dead:
                self.kill_node(node_id)
                self.runtime.trace("perturb.death", node_id)

        self._energy_timer = PeriodicTimer(
            self.runtime.sim, interval, drain_all
        )
        self._energy_timer.start()
        return self.energy

    def detach_energy(self) -> None:
        """Stop energy drain (e.g. to let the structure stabilise for
        a measurement)."""
        if self._energy_timer is not None:
            self._energy_timer.stop()
            self._energy_timer = None

    def _role_of(self, node_id: NodeId) -> str:
        node = self.runtime.nodes.get(node_id)
        if node is None:
            return "associate"
        status = node.state.status
        if status.is_head_like:
            return "head"
        if status is NodeStatus.ASSOCIATE and node.state.is_candidate:
            return "candidate"
        return "associate"
