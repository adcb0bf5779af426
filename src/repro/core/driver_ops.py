"""The driver-op table: every perturbation and packet op, written once.

A *driver op* acts on a run from outside its event loop: a node is
killed, revived, joined, moved or corrupted, a disk is jammed, a
forwarding plane is attached, or packets are injected.  Op ``k`` runs
in lane ``DRIVER_BASE + k`` after every event due at its time, and its
same-time follow-ups finish before op ``k + 1`` starts
(:meth:`~repro.sim.engine.Simulator.apply`).  The in-process driver
and the sharded one run the same functions under that rule, which is
what makes their trajectories one.

:data:`DRIVER_OPS` maps an op kind to a function ``(host, desc)``:

* ``host`` owns one runtime: the in-process driver, or one shard worker
  of a :class:`~repro.sim.shard.ShardedSimulation`.  It offers
  ``runtime``, ``node_class`` (the program a joining node runs) and
  ``_started`` (whether the programs have booted).
* ``desc`` is a plain tuple; a sharded run pickles it to its workers.

Physical effects (liveness, position, a jam window) apply on every
host the op reaches.  Program-side effects run only where the node's
program lives (``node_id in runtime.nodes``), so a sharded run does each
exactly once: ``on_killed``, ``on_revived``, ``on_moved``, building and
starting a joined node, and the ``perturb.*`` trace record.

:class:`PacketOps` and :class:`PerturbationOps` hold the public op
methods and their no-op checks.  A driver mixes them in and supplies
``network``, ``now`` and ``_drive(kind, desc)``, which runs one op as
the driver's next op and returns its result.

Only :mod:`repro.geometry` is imported at module level: the sharded
facade imports this module while :mod:`repro.sim` may still be loading.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..geometry import Vec2

if TYPE_CHECKING:  # pragma: no cover
    from ..net import JamWindow, NodeId

__all__ = ["DRIVER_OPS", "PacketOps", "PerturbationOps", "default_corruption"]


def default_corruption(node, rng) -> None:
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


# -- the ops ------------------------------------------------------------------


def _kill(host, desc) -> None:
    (node_id,) = desc
    runtime = host.runtime
    runtime.network.kill_node(node_id)
    node = runtime.nodes.get(node_id)
    if node is not None:
        if hasattr(node, "on_killed"):
            node.on_killed()
        runtime.trace("perturb.kill", node_id)


def _revive(host, desc) -> None:
    (node_id,) = desc
    runtime = host.runtime
    runtime.network.revive_node(node_id)
    node = runtime.nodes.get(node_id)
    if node is not None:
        if hasattr(node, "on_revived"):
            node.on_revived()
        runtime.trace("perturb.join", node_id)


def _join(host, desc) -> NodeId:
    """A new node and its program; a ``None`` id takes the next free one."""
    node_id, position = desc
    runtime = host.runtime
    node_id = runtime.network.add_node(
        position,
        max_range=runtime.config.recommended_max_range,
        node_id=node_id,
    ).node_id
    node = host.node_class(runtime, node_id)
    if host._started:
        node.start()
    runtime.trace("perturb.join", node_id)
    return node_id


def _mirror(host, desc) -> None:
    """A physical copy of a node whose program lives in another stripe."""
    node_id, position, alive = desc
    runtime = host.runtime
    runtime.network.add_node(
        position,
        max_range=runtime.config.recommended_max_range,
        node_id=node_id,
    )
    if not alive:
        runtime.network.kill_node(node_id)


def _move(host, desc) -> None:
    node_id, position = desc
    runtime = host.runtime
    old = runtime.network.node(node_id).position
    runtime.network.move_node(node_id, position)
    node = runtime.nodes.get(node_id)
    if node is not None:
        if hasattr(node, "on_moved"):
            node.on_moved(old, position)
        runtime.trace("perturb.move", node_id)


def _corrupt(host, desc) -> None:
    """Op ``k`` draws from its own ``corruption:<k>`` seed, so the draws
    do not depend on which host runs it."""
    from ..sim.engine import DRIVER_BASE
    from ..sim.rng import derive_seed

    node_id, mutator = desc
    runtime = host.runtime
    op = runtime.sim.current_lane - DRIVER_BASE
    seed = derive_seed(runtime.rng.master_seed, f"corruption:{op}")
    mutator(runtime.nodes[node_id], random.Random(seed))
    runtime.trace("perturb.corrupt", node_id)


def _jam(host, desc) -> None:
    """Install a jam window; ``emit`` says whether this host traces it
    (a jam names no node, so one host of a sharded run is picked)."""
    window, emit = desc
    runtime = host.runtime
    runtime.radio.ensure_fault_model().add_jam_window(window)
    if emit:
        runtime.tracer.emit(
            runtime.sim.now,
            "perturb.jam",
            node=None,
            center=(window.center.x, window.center.y),
            radius=window.radius,
            until=window.end,
        )


def _attach(host, desc):
    from ..traffic.plane import ForwardingPlane

    plane_config, stream = desc
    return ForwardingPlane(host.runtime, plane_config, stream=stream)


def _send(host, desc) -> None:
    (packet,) = desc
    host.runtime.radio.data_plane.inject(packet)


def _send_batch(host, desc) -> None:
    (packets,) = desc
    host.runtime.radio.data_plane.inject_batch(list(packets))


#: Op kind -> ``(host, desc) -> result``; see the module docstring.
DRIVER_OPS: Dict[str, Callable[[Any, tuple], Any]] = {
    "kill": _kill,
    "revive": _revive,
    "join": _join,
    "mirror": _mirror,
    "move": _move,
    "corrupt": _corrupt,
    "jam": _jam,
    "attach": _attach,
    "send": _send,
    "send_batch": _send_batch,
}


# -- the public op methods -----------------------------------------------------


class PacketOps:
    """The data-plane ops: attach a forwarding plane, inject packets."""

    def attach_traffic(self, plane_config: Dict[str, Any], stream=None):
        """Attach a forwarding plane (a driver operation).

        In process this returns the plane; ``stream`` optionally spills
        its records to a :class:`~repro.traffic.stream.JsonlRecordStream`.
        A sharded run returns ``None`` (each shard worker owns its
        stripe's plane; records come back through ``traffic_records``).
        """
        return self._drive("attach", (dict(plane_config), stream))

    def send_packet(self, packet) -> None:
        """Originate a data packet at its source, now."""
        self._drive("send", (packet,))

    def send_packet_batch(self, packets) -> None:
        """Originate a same-source packet batch in one driver operation:
        one op id (and, sharded, one round trip to the owning shard)
        instead of one per packet."""
        self._drive("send_batch", (tuple(packets),))


class PerturbationOps:
    """The perturbations of the paper's system model — node joins,
    leaves, deaths, state corruptions and movements — plus jamming."""

    def kill_node(self, node_id: NodeId) -> None:
        """Unanticipated node leave / fail-stop (no-op on dead nodes)."""
        network = self.network
        if network.has_node(node_id) and network.node(node_id).alive:
            self._drive("kill", (node_id,))

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
        network = self.network
        if network.has_node(node_id) and not network.node(node_id).alive:
            self._drive("revive", (node_id,))

    def add_node(self, position: Vec2) -> NodeId:
        """A brand-new node joins the network at ``position``; returns
        its id."""
        return self._drive("join", (None, position))

    def corrupt_node(
        self, node_id: NodeId, mutator: Callable = default_corruption
    ) -> None:
        """Corrupt a node's protocol state in place with
        ``mutator(node, rng)``; raises ``KeyError`` for an unknown
        node."""
        if not self.network.has_node(node_id):
            raise KeyError(node_id)
        self._drive("corrupt", (node_id, mutator))

    def move_node(self, node_id: NodeId, new_position: Vec2) -> None:
        """Relocate a node (mobile perturbation)."""
        if self.network.has_node(node_id):
            self._drive("move", (node_id, new_position))

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
        from ..net import JamWindow

        begin = self.now if start is None else start
        window = JamWindow(
            start=begin, end=begin + duration, center=center, radius=radius
        )
        self._drive("jam", (window, True))
        return window
