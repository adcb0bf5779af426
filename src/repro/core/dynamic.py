"""Simulation driver for dynamic (and mobile) networks.

``Gs3DynamicSimulation`` extends the static driver with the
perturbation API of the paper's system model — node joins, leaves,
deaths (energy-driven or scheduled), state corruptions, and movements —
plus convergence measurement for the healing experiments.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Type

from ..geometry import Vec2
from ..net import (
    ChannelFaultConfig,
    Deployment,
    EnergyConfig,
    EnergyTracker,
    JamWindow,
    Network,
    NodeId,
)
from ..sim import PeriodicTimer, derive_seed
from .config import GS3Config
from .gs3d import Gs3DynamicNode
from .gs3s import Gs3StaticNode
from .simulation import Gs3Simulation
from .state import NodeStatus

__all__ = ["Gs3DynamicSimulation", "default_corruption"]


def default_corruption(node: Gs3StaticNode, rng) -> None:
    """The default state-corruption mutator.

    Produces a *plausible but wrong* head state of the kind only sanity
    checking catches: the cell's original ideal location and
    ``<ICC, ICP>`` are scrambled (so the cell's geometry no longer
    matches the hexagonal virtual structure), and the hop count is
    randomised.  The head's position still lies within ``R_t`` of its
    (uncorrupted) current IL, so the mobility-retreat path does not
    mask the corruption.
    """
    state = node.state
    rt = node.cfg.radius_tolerance
    if state.oil is not None:
        offset = Vec2(
            rng.uniform(2.0 * rt, 4.0 * rt) * (1 if rng.random() < 0.5 else -1),
            rng.uniform(2.0 * rt, 4.0 * rt) * (1 if rng.random() < 0.5 else -1),
        )
        state.oil = state.oil + offset
    state.icc_icp = (rng.randrange(1, 4), rng.randrange(0, 6))
    state.hops_to_root = rng.randrange(0, 100)


class Gs3DynamicSimulation(Gs3Simulation):
    """A protocol run in a dynamic / mobile network."""

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

    # -- perturbations (driver operations) ----------------------------

    def kill_node(self, node_id: NodeId) -> None:
        """Unanticipated node leave / fail-stop (no-op on dead nodes)."""
        if not self.network.has_node(node_id):
            return
        if not self.network.node(node_id).alive:
            return  # already dead: don't re-run on_killed or re-trace

        def kill() -> None:
            self.network.kill_node(node_id)
            node = self.runtime.nodes.get(node_id)
            if node is not None and hasattr(node, "on_killed"):
                node.on_killed()
            self.runtime.trace("perturb.kill", node_id)

        self._apply(kill)

    def kill_region(self, center: Vec2, radius: float) -> List[NodeId]:
        """Kill every live node in a disk; returns the victims."""
        victims = [
            n.node_id
            for n in self.network.nodes_within(center, radius)
            if not n.is_big
        ]
        for node_id in victims:
            self.kill_node(node_id)
        return victims

    def revive_node(self, node_id: NodeId) -> None:
        """A previously dead node re-joins at its old position
        (no-op on live nodes)."""
        if not self.network.has_node(node_id):
            return
        if self.network.node(node_id).alive:
            return  # already alive: don't re-run on_revived or re-trace

        def revive() -> None:
            self.network.revive_node(node_id)
            node = self.runtime.nodes.get(node_id)
            if node is not None and hasattr(node, "on_revived"):
                node.on_revived()
            if self.energy is not None:
                self.energy.add_node(node_id)
            self.runtime.trace("perturb.join", node_id)

        self._apply(revive)

    def add_node(self, position: Vec2) -> NodeId:
        """A brand-new node joins the network at ``position``."""

        def join() -> NodeId:
            phys = self.network.add_node(
                position, max_range=self.config.recommended_max_range
            )
            node = self.node_class(self.runtime, phys.node_id)
            if self._started:
                node.start()
            if self.energy is not None:
                self.energy.add_node(phys.node_id)
            self.runtime.trace("perturb.join", phys.node_id)
            return phys.node_id

        return self._apply(join)

    def corrupt_node(
        self,
        node_id: NodeId,
        mutator: Callable = default_corruption,
    ) -> None:
        """Corrupt a node's protocol state in place.

        Operation ``k`` draws from its own ``corruption:<k>`` seed, so
        the draws do not depend on which shard would execute it.
        """
        node = self.runtime.nodes[node_id]
        index = next(self._driver_ops)
        rng = random.Random(derive_seed(self.seed, f"corruption:{index}"))

        def corrupt() -> None:
            mutator(node, rng)
            self.runtime.trace("perturb.corrupt", node_id)

        self._apply(corrupt, index)

    def move_node(self, node_id: NodeId, new_position: Vec2) -> None:
        """Relocate a node (mobile perturbation)."""
        if not self.network.has_node(node_id):
            return

        def move() -> None:
            old = self.network.node(node_id).position
            self.network.move_node(node_id, new_position)
            node = self.runtime.nodes.get(node_id)
            if node is not None and hasattr(node, "on_moved"):
                node.on_moved(old, new_position)
            self.runtime.trace("perturb.move", node_id)

        self._apply(move)

    def jam_region(
        self,
        center: Vec2,
        radius: float,
        duration: float,
        start: Optional[float] = None,
    ) -> JamWindow:
        """Jam a disk of the field: broadcasts with either endpoint in
        the disk are dropped during ``[start, start + duration)``.

        An adversarial channel perturbation (no node state is touched).
        Installs a transparent fault model on the radio if the run was
        configured without one, so jamming composes with any channel
        configuration.
        """
        begin = self.now if start is None else start
        window = JamWindow(
            start=begin, end=begin + duration, center=center, radius=radius
        )

        def jam() -> None:
            self.runtime.radio.ensure_fault_model().add_jam_window(window)
            self.runtime.tracer.emit(
                self.runtime.sim.now,
                "perturb.jam",
                node=None,
                center=(center.x, center.y),
                radius=radius,
                until=window.end,
            )

        self._apply(jam)
        return window

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
