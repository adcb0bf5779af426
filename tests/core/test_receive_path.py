"""The protocol receive path: table dispatch, liveness, the probe hook.

A delivery reaches a node program in three steps: one node lookup at
the radio (``Radio._deliver``), one at the node (``alive``), and one
lookup in the node class's :class:`~repro.core.gs3s.HandlerTable`.
These tests pin that the table resolves every message type exactly as
``getattr(cls, "_on_" + name.lower(), None)`` did, that a dead node
still does nothing (GS3-D's bookkeeping first, as before), and that a
handler wrapped at ``Radio.register`` — the hook per-kind profilers
use — sees every delivery.
"""

import inspect

import pytest

from repro.core import (
    GS3Config,
    Gs3DynamicNode,
    Gs3DynamicSimulation,
    Gs3MobileNode,
    Gs3StaticNode,
    KnownHead,
    NodeStatus,
    messages,
)
from repro.core.gs3s import HandlerTable
from repro.core.messages import HeadInterAlive, Message, NewChildHead, Org
from repro.core.runtime import Gs3Runtime
from repro.geometry import Vec2
from repro.net import Network, Radio, uniform_disk
from repro.sim import RngStreams, Simulator

CFG = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
NODE_CLASSES = (Gs3StaticNode, Gs3DynamicNode, Gs3MobileNode)
MESSAGE_TYPES = sorted(
    (
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if issubclass(cls, Message) and cls is not Message
    ),
    key=lambda cls: cls.__name__,
)


class Stray(Message):
    """A message type no node program handles."""


def two_node_runtime(node_class):
    """A root head at the origin and an associate one cell away."""
    network = Network(cell_size=200.0)
    network.add_node(Vec2(0, 0), CFG.recommended_max_range, is_big=True)
    network.add_node(Vec2(CFG.lattice_spacing, 0), CFG.recommended_max_range)
    runtime = Gs3Runtime.build(network, CFG, seed=1)
    head = node_class(runtime, 0)
    other = node_class(runtime, 1)
    head.state.status = NodeStatus.WORK
    head.state.cell_axial = (0, 0)
    head.state.oil = head.state.current_il = runtime.lattice.point((0, 0))
    head.state.parent_id = 0
    return runtime, head, other


def inter_alive(sender, epoch):
    return HeadInterAlive(
        sender=sender,
        position=Vec2(CFG.lattice_spacing, 0),
        axial=(1, 0),
        il=Vec2(CFG.lattice_spacing, 0),
        icc_icp=(0, 0),
        hops_to_root=1,
        parent_id=0,
        is_root=False,
        root_position=Vec2(0, 0),
        root_epoch=epoch,
        root_heard_at=0.0,
    )


class TestHandlerTable:
    def test_covers_the_message_module(self):
        names = {kind.__name__ for kind in MESSAGE_TYPES}
        assert names == set(messages.__all__) - {"Message", "HeadAssignment"}

    @pytest.mark.parametrize("node_class", NODE_CLASSES)
    @pytest.mark.parametrize("kind", MESSAGE_TYPES, ids=lambda k: k.__name__)
    def test_resolves_as_getattr(self, node_class, kind):
        expected = getattr(node_class, "_on_" + kind.__name__.lower(), None)
        assert node_class.handlers[kind] is expected

    def test_every_class_has_its_own_table(self):
        tables = [cls.handlers for cls in NODE_CLASSES]
        assert all(type(table) is HandlerTable for table in tables)
        assert len({id(table) for table in tables}) == len(tables)
        assert [table.cls for table in tables] == list(NODE_CLASSES)

    def test_overrides_and_inheritance(self):
        # GS3-D overrides _on_org; GS3-M inherits GS3-D's handlers.
        assert Gs3DynamicNode.handlers[Org] is Gs3DynamicNode._on_org
        assert Gs3DynamicNode.handlers[Org] is not Gs3StaticNode._on_org
        assert Gs3MobileNode.handlers[Org] is Gs3DynamicNode._on_org
        # GS3-S has no heartbeat handlers at all.
        assert Gs3StaticNode.handlers[HeadInterAlive] is None
        assert Gs3DynamicNode.handlers[HeadInterAlive] is not None

    @pytest.mark.parametrize("node_class", NODE_CLASSES)
    def test_unhandled_type_is_a_no_op(self, node_class):
        runtime, head, _ = two_node_runtime(node_class)
        before = repr(head.state)
        head.on_message(Stray(sender=1), 1)
        assert node_class.handlers[Stray] is None
        assert repr(head.state) == before
        assert head.known_heads == {}

    @pytest.mark.parametrize("node_class", NODE_CLASSES)
    def test_handled_type_reaches_its_handler(self, node_class):
        runtime, head, _ = two_node_runtime(node_class)
        head.on_message(NewChildHead(sender=1, axial=(1, 0)), 1)
        if node_class is Gs3StaticNode:
            assert head.state.children == set()  # GS3-S has no handler
        else:
            assert head.state.children == {1}


class TestLiveness:
    @pytest.mark.parametrize("node_class", NODE_CLASSES)
    @pytest.mark.parametrize("how", ["kill", "remove"])
    def test_dead_node_does_nothing(self, node_class, how):
        runtime, head, _ = two_node_runtime(node_class)
        getattr(runtime.network, how + "_node")(0)
        assert not head.alive
        head.on_message(NewChildHead(sender=1, axial=(1, 0)), 1)
        head.on_message(inter_alive(1, epoch=3), 1)
        assert head.state.children == set()
        assert head.known_heads == {}

    def test_gs3d_bookkeeping_runs_before_the_liveness_check(self):
        runtime, head, _ = two_node_runtime(Gs3DynamicNode)
        runtime.sim.run(until=5.0)
        runtime.network.kill_node(0)
        head.on_message(inter_alive(1, epoch=7), 1)
        assert head._last_activity == runtime.sim.now == 5.0
        assert head._max_epoch_heard == 7
        assert head.known_heads == {}  # ...but no handler ran

    def test_alive_follows_the_network(self):
        runtime, head, other = two_node_runtime(Gs3DynamicNode)
        assert head.alive and other.alive
        runtime.network.kill_node(1)
        assert not other.alive
        runtime.network.revive_node(1)
        assert other.alive
        runtime.network.remove_node(1)
        assert not other.alive
        assert runtime.network.get(1) is None
        assert runtime.network.get(0) is runtime.network.node(0)


class TestCachedReads:
    def test_known_head_is_slotted(self):
        info = KnownHead(1, Vec2(0, 0), Vec2(0, 0), (0, 0), 1, 0.0)
        assert not hasattr(info, "__dict__")
        with pytest.raises(AttributeError):
            info.extra = 1

    def test_gr_direction_computed_once(self):
        runtime, _, _ = two_node_runtime(Gs3DynamicNode)
        assert runtime.gr_direction is runtime.gr_direction
        assert runtime.gr_direction == Vec2.unit(CFG.gr_orientation)


def wrap_register(monkeypatch):
    """Wrap every handler at ``Radio.register``, as a per-kind
    profiler does; returns the list of ``(receiver, kind)`` it saw."""
    seen = []
    original = Radio.register

    def register(self, node_id, handler):
        def wrapped(payload, sender_id):
            seen.append((node_id, type(payload).__name__))
            return handler(payload, sender_id)

        return original(self, node_id, wrapped)

    monkeypatch.setattr(Radio, "register", register)
    return seen


class TestRegisteredHandlerHook:
    def test_sees_a_broadcast_run_a_unicast_and_a_data_frame(self, monkeypatch):
        seen = wrap_register(monkeypatch)
        network = Network(cell_size=50.0)
        nodes = [
            network.add_node(Vec2(x, 0), 50.0) for x in (0, 10, 20, 30)
        ]
        sim = Simulator()
        radio = Radio(network, sim)
        got = []
        for node in nodes:
            radio.register(
                node.node_id, lambda p, s, n=node.node_id: got.append((n, p))
            )
        assert radio.broadcast(0, "beat", tx_range=40.0) == 3
        assert radio.unicast(0, 2, "ack")
        assert radio.send_data(0, 3, "frame") == "sent"
        sim.run()
        assert sorted(got) == [
            (1, "beat"), (2, "ack"), (2, "beat"), (3, "beat"), (3, "frame"),
        ]
        assert sorted(seen) == [
            (1, "str"), (2, "str"), (2, "str"), (3, "str"), (3, "str"),
        ]

    def test_sees_every_protocol_delivery_of_a_run(self, monkeypatch):
        seen = wrap_register(monkeypatch)
        deployment = uniform_disk(160.0, 160, RngStreams(3))
        simulation = Gs3DynamicSimulation.from_deployment(
            deployment, CFG, seed=3
        )
        simulation.start()
        simulation.run_for(40.0)
        counts = simulation.tracer.counts
        assert counts["msg.broadcast"] > 0 and counts["msg.unicast"] > 0
        assert len(seen) == counts["msg.deliver"]
        kinds = {kind for _, kind in seen}
        assert {"Org", "OrgReply", "HeadSet", "AssociateAlive"} <= kinds
