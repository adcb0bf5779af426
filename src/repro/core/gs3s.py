"""GS3-S: self-configuration in static networks (Section 3).

The algorithm is a one-way diffusing computation.  The big node acts as
head of the central cell and organises the heads of its six neighbouring
cells (module HEAD_ORG over a full-circle search region); every newly
selected head then organises the vacant cells in its forward search
region, and so on until no new head can be selected.  Every node that
participated without being selected becomes an associate of the best
(closest) head it knows.

This module implements the node program as an event-driven state
machine over the messages of ``repro.core.messages``:

* ``HEAD_ORG``      -> :meth:`Gs3StaticNode.start_head_org` /
  :meth:`_org_granted` / :meth:`_org_close`
* ``HEAD_ORG_RESP`` -> the :class:`~repro.core.messages.Org` branch of
  :meth:`_on_org` for head-status receivers
* ``ASSOCIATE_ORG_RESP`` -> the :class:`~repro.core.messages.Org` and
  :class:`~repro.core.messages.HeadSet` branches for bootup/associate
  receivers
* ``HEAD_SELECT``   -> the pure function in ``head_select.py``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..geometry import Axial, SearchRegion, Vec2, hex_distance
from ..net import ChannelLease, NodeId
from .head_select import (
    drifted_candidate_ils,
    head_select,
    neighbor_candidate_ils,
)
from .messages import (
    HeadAssignment,
    HeadOrgReply,
    HeadSet,
    Org,
    OrgReply,
)
from .runtime import Gs3Runtime
from .state import NodeStatus, ProtocolState

__all__ = ["Gs3StaticNode", "HandlerTable", "KnownHead"]


@dataclass(slots=True)
class KnownHead:
    """What a node has overheard about some head in its vicinity."""

    node_id: NodeId
    position: Vec2
    il: Vec2
    axial: Axial
    hops_to_root: int
    last_heard: float
    #: Root epoch the head advertised with its hop count.
    root_epoch: int = 0
    #: The head's advertised root freshness (``None`` = unknown).
    root_heard_at: Optional[float] = None


class HandlerTable(dict):
    """A node class's receive table: message type -> handler function.

    Each type is resolved on its first delivery to exactly what
    ``getattr(cls, "_on_" + type name in lower case, None)`` finds, so
    subclass overrides resolve as attribute lookup does; ``None`` marks
    a type the class ignores.  Every later delivery of the type is one
    dict lookup.

    A class's handlers are therefore read once per process: rebinding
    ``_on_<kind>`` on a class after that type's first delivery (a test
    patching a handler, say) is not seen until the table of that class
    and of each subclass is cleared (``cls.handlers.clear()``).  A
    handler set on an instance is never called.
    """

    __slots__ = ("cls",)

    def __init__(self, cls: type):
        super().__init__()
        self.cls = cls

    def __missing__(self, kind: type) -> Optional[Callable]:
        handler = getattr(self.cls, f"_on_{kind.__name__.lower()}", None)
        self[kind] = handler
        return handler


@dataclass
class _OrgRound:
    """Transient state of one HEAD_ORG execution."""

    lease: Optional[ChannelLease] = None
    small_replies: Dict[NodeId, Vec2] = field(default_factory=dict)
    head_replies: Dict[NodeId, HeadOrgReply] = field(default_factory=dict)
    closed: bool = False


class Gs3StaticNode:
    """The GS3-S program for one node (big or small).

    The big node runs ``Big_node`` (it boots as head of the central
    cell with a full-circle search region); small nodes run
    ``Small_node`` (they boot passive and react to *org* messages).
    """

    #: This class's receive table; every subclass gets its own.
    handlers: HandlerTable

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.handlers = HandlerTable(cls)

    def __init__(self, runtime: Gs3Runtime, node_id: NodeId):
        self.rt = runtime
        self.node_id = node_id
        self.state = ProtocolState()
        #: Heads this node has overheard, keyed by node id.
        self.known_heads: Dict[NodeId, KnownHead] = {}
        #: Vacant neighbouring cells found R_t-gap perturbed during
        #: HEAD_ORG (GS3-D re-probes them).
        self.gap_axials: set = set()
        #: Highest root epoch ever heard (monotonic; survives resets so
        #: a regenerated or resuming root always outbids it).
        self._max_epoch_heard: int = 0
        self._org: Optional[_OrgRound] = None
        if runtime.config.location_error > 0.0:
            rng = runtime.rng.stream(f"location.{node_id}")
            self._location_error: Optional[Vec2] = Vec2(
                rng.gauss(0.0, runtime.config.location_error),
                rng.gauss(0.0, runtime.config.location_error),
            )
        else:
            self._location_error = None
        runtime.radio.register(node_id, self.on_message)
        runtime.nodes[node_id] = self

    # -- convenience ----------------------------------------------------

    @property
    def cfg(self):
        return self.rt.config

    @property
    def phys(self):
        """The node's physical twin."""
        return self.rt.network.node(self.node_id)

    @property
    def position(self) -> Vec2:
        """The node's *believed* position.

        Equal to the true position unless the configuration models
        location estimation error; the big node's estimate is always
        exact (it anchors the lattice).
        """
        phys = self.phys
        if self._location_error is None or phys.is_big:
            return phys.position
        return phys.position + self._location_error

    @property
    def is_big(self) -> bool:
        return self.phys.is_big

    @property
    def alive(self) -> bool:
        phys = self.rt.network.get(self.node_id)
        return phys is not None and phys.alive

    @property
    def is_root(self) -> bool:
        """Whether this head is the root of the head graph."""
        return (
            self.state.status.is_head_like
            and self.state.parent_id == self.node_id
        )

    # -- program entry -----------------------------------------------------

    def start(self) -> None:
        """Boot the node program.

        ``Big_node``: act as the central cell's head and organise the
        1-band cells.  ``Small_node``: stay in *bootup* and listen.
        """
        if self.is_big:
            self.rt.sim.call_soon(self.become_root)

    def become_root(self) -> None:
        """The big node assumes headship of the central cell."""
        state = self.state
        state.status = NodeStatus.HEAD
        state.cell_axial = (0, 0)
        state.oil = self.rt.lattice.origin
        state.current_il = (
            self.rt.lattice.origin if self.cfg.anchor_on_il else self.position
        )
        state.icc_icp = (0, 0)
        state.parent_id = self.node_id
        state.parent_il = state.current_il
        state.hops_to_root = 0
        state.root_epoch = self._next_root_epoch()
        state.root_heard_at = self.rt.sim.now
        self.rt.trace("head.become", self.node_id, axial=state.cell_axial)
        self.on_became_head()
        self.start_head_org()

    def _next_root_epoch(self) -> int:
        """A root epoch strictly above everything this node has seen."""
        return max(self.state.root_epoch, self._max_epoch_heard) + 1

    def _merge_root_freshness(
        self, root_epoch: int, root_heard_at: Optional[float]
    ) -> None:
        """Adopt an advertised root view if it beats the current one.

        Ordered by (epoch, freshness); an unknown freshness (``None``)
        never displaces a known one at equal epoch.
        """
        state = self.state
        current = (
            state.root_epoch,
            -math.inf if state.root_heard_at is None else state.root_heard_at,
        )
        offered = (
            root_epoch,
            -math.inf if root_heard_at is None else root_heard_at,
        )
        if offered > current:
            state.root_epoch = root_epoch
            state.root_heard_at = root_heard_at

    # -- HEAD_ORG ---------------------------------------------------------

    def start_head_org(self) -> None:
        """Begin a HEAD_ORG round (reserve the channel first)."""
        if self._org is not None or not self.state.status.is_head_like:
            return
        if not self.alive:
            return
        self._org = _OrgRound()
        assert self.state.current_il is not None
        self._org.lease = self.rt.channel.request(
            self.node_id,
            self.state.current_il,
            self.cfg.search_radius,
            self._org_granted,
        )

    def _org_granted(self, lease: ChannelLease) -> None:
        if not self.alive or not self.state.status.is_head_like:
            self.rt.channel.release(lease)
            self._org = None
            return
        state = self.state
        self.rt.trace("org.start", self.node_id, axial=state.cell_axial)
        self.rt.radio.broadcast(
            self.node_id,
            Org(
                sender=self.node_id,
                head_position=self.position,
                il=state.current_il,
                axial=state.cell_axial,
                icc_icp=state.icc_icp,
                hops_to_root=state.hops_to_root,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
            tx_range=self.cfg.recommended_max_range,
        )
        self.rt.sim.schedule(self.cfg.collect_window, self._org_close)

    def _search_region(self) -> SearchRegion:
        """The sector this head searches, per Section 3.2.

        The reference direction is derived from the same parent axial
        as the candidate ILs so that the sector always covers them;
        with no usable parent the full circle is searched.
        """
        state = self.state
        assert state.current_il is not None
        parent_axial = self._parent_axial()
        if self.is_root or parent_axial is None:
            return SearchRegion.full_circle(
                state.current_il, self.cfg.search_radius
            )
        if self.cfg.anchor_on_il and state.oil is not None:
            offset = state.current_il - state.oil
            parent_anchor = self.rt.lattice.point(parent_axial) + offset
        else:
            parent_anchor = state.parent_il
        if parent_anchor is None:
            return SearchRegion.full_circle(
                state.current_il, self.cfg.search_radius
            )
        reference = state.current_il - parent_anchor
        if reference.norm() == 0.0:
            return SearchRegion.full_circle(
                state.current_il, self.cfg.search_radius
            )
        return SearchRegion.forward_sector(
            state.current_il,
            reference.angle(),
            self.cfg.ideal_radius,
            self.cfg.radius_tolerance,
        )

    def _candidate_ils(self) -> List[Tuple[Axial, Vec2]]:
        """Step 1 of HEAD_SELECT (exact lattice or drift ablation)."""
        state = self.state
        parent_axial = self._parent_axial()
        if self.cfg.anchor_on_il:
            return neighbor_candidate_ils(
                self.rt.lattice, state.cell_axial, parent_axial
            )
        parent_position = state.parent_il
        return drifted_candidate_ils(
            state.current_il,
            None if self.is_root else parent_position,
            state.cell_axial,
            parent_axial,
            self.cfg.lattice_spacing,
            self.rt.gr_direction,
        )

    def _parent_axial(self) -> Optional[Axial]:
        """Axial of the parent's cell, or ``None`` when unusable.

        Returns ``None`` for the root and whenever the parent's cell is
        not adjacent to ours (possible after the big node resumed in a
        different cell, GS3-M): the head then has no directional
        reference and searches the full circle.
        """
        if self.is_root:
            return None
        # The parent's cell comes from the message-built known-heads
        # table, never its live state: the parent may be simulated in
        # another shard, or removed from the network.
        info = self.known_heads.get(self.state.parent_id)
        axial = info.axial if info else None
        if axial is None or self.state.cell_axial is None:
            return None
        if hex_distance(axial, self.state.cell_axial) != 1:
            return None
        return axial

    def _occupied_axials(self) -> set:
        occupied = {self.state.cell_axial}
        parent_axial = self._parent_axial()
        if parent_axial is not None:
            occupied.add(parent_axial)
        assert self._org is not None
        for reply in self._org.head_replies.values():
            occupied.add(reply.axial)
        for info in self.known_heads.values():
            occupied.add(info.axial)
        occupied.discard(None)
        return occupied

    def _org_close(self) -> None:
        """Run HEAD_SELECT over the collected replies and broadcast the
        selected head set."""
        org = self._org
        if org is None or org.closed:
            return
        org.closed = True
        if not self.alive or not self.state.status.is_head_like:
            self._finish_org()
            return
        state = self.state
        region = self._search_region()
        small_nodes = [
            (node_id, position)
            for node_id, position in sorted(org.small_replies.items())
            if region.contains(position)
        ]
        result = head_select(
            self._candidate_ils(),
            self._occupied_axials(),
            small_nodes,
            self.cfg.radius_tolerance,
            self.rt.gr_direction,
        )
        self.gap_axials = set(result.gap_axials)
        assignments = tuple(
            HeadAssignment(node_id=node_id, position=position, il=il, axial=axial)
            for axial, il, node_id, position in result.assignments
        )
        for assignment in assignments:
            state.children.add(assignment.node_id)
            self.rt.trace(
                "head.selected",
                self.node_id,
                child=assignment.node_id,
                axial=assignment.axial,
            )
        for axial in result.gap_axials:
            self.rt.trace("gap.found", self.node_id, axial=axial)
        self.rt.radio.broadcast(
            self.node_id,
            HeadSet(
                sender=self.node_id,
                organizer_position=self.position,
                organizer_il=state.current_il,
                organizer_axial=state.cell_axial,
                organizer_icc_icp=state.icc_icp,
                organizer_hops=state.hops_to_root,
                assignments=assignments,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
            tx_range=self.cfg.recommended_max_range,
        )
        self.rt.trace("org.close", self.node_id, selected=len(assignments))
        self._finish_org()
        self.on_org_complete()

    def _finish_org(self) -> None:
        if self._org is not None and self._org.lease is not None:
            self.rt.channel.release(self._org.lease)
        self._org = None
        if self.state.status is NodeStatus.HEAD:
            self.state.status = NodeStatus.WORK

    def on_org_complete(self) -> None:
        """Hook for subclasses (GS3-D schedules gap re-probes here)."""

    # -- message dispatch ------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        """Radio receive handler; dispatches on the message type
        through the class's :class:`HandlerTable`."""
        if not self.alive:
            return
        handler = self.handlers[type(payload)]
        if handler is not None:
            handler(self, payload, sender)

    # -- Org: HEAD_ORG_RESP + ASSOCIATE_ORG_RESP --------------------------------

    def _on_org(self, msg: Org, sender: NodeId) -> None:
        self._remember_head(
            sender,
            msg.head_position,
            msg.il,
            msg.axial,
            msg.hops_to_root,
            msg.root_epoch,
            msg.root_heard_at,
        )
        status = self.state.status
        if status.is_head_like:
            # HEAD_ORG_RESP: report our cell so the organiser does not
            # select a duplicate head for it.
            self.rt.radio.unicast(
                self.node_id,
                sender,
                HeadOrgReply(
                    sender=self.node_id,
                    position=self.position,
                    il=self.state.current_il,
                    axial=self.state.cell_axial,
                    icc_icp=self.state.icc_icp,
                    hops_to_root=self.state.hops_to_root,
                    root_epoch=self.state.root_epoch,
                    root_heard_at=self.state.root_heard_at,
                ),
            )
            return
        if status is NodeStatus.BOOTUP:
            self.rt.radio.unicast(
                self.node_id,
                sender,
                OrgReply(
                    sender=self.node_id, position=self.position, has_head=False
                ),
            )
            return
        if status is NodeStatus.ASSOCIATE:
            # Report our state: Figure 3's candidate areas CA(j) contain
            # *any* small node within R_t of the ideal location, so
            # associates must be selectable too (this is how abandoned
            # and R_t-gap cells are re-headed once nodes reappear).
            # Switching allegiance remains gated on "better" in
            # _choose_best_known_head.
            self.rt.radio.unicast(
                self.node_id,
                sender,
                OrgReply(
                    sender=self.node_id,
                    position=self.position,
                    has_head=True,
                ),
            )

    def _is_better_head(
        self, candidate_position: Vec2, candidate_id: NodeId
    ) -> bool:
        """Whether a head at ``candidate_position`` beats the current one.

        A current head that has been silent past the failure timeout is
        treated as absent: any live head is better than a dead one.
        """
        state = self.state
        if state.head_id is None or state.head_position is None:
            return True
        if (
            self.rt.sim.now - state.head_last_heard
            > self.cfg.failure_timeout
        ):
            return True
        if candidate_id == state.head_id:
            return False
        position = self.position
        current = position.distance_to(state.head_position)
        offered = position.distance_to(candidate_position)
        if offered < current - 1e-9:
            return True
        if abs(offered - current) <= 1e-9:
            return candidate_id < state.head_id
        return False

    # -- org replies (only meaningful while organising) ---------------------------

    def _on_orgreply(self, msg: OrgReply, sender: NodeId) -> None:
        if self._org is not None and not self._org.closed:
            self._org.small_replies[sender] = msg.position

    def _on_headorgreply(self, msg: HeadOrgReply, sender: NodeId) -> None:
        self._remember_head(
            sender,
            msg.position,
            msg.il,
            msg.axial,
            msg.hops_to_root,
            msg.root_epoch,
            msg.root_heard_at,
        )
        if self._org is not None and not self._org.closed:
            self._org.head_replies[sender] = msg

    # -- HeadSet -------------------------------------------------------------------

    def _on_headset(self, msg: HeadSet, sender: NodeId) -> None:
        self._remember_head(
            sender,
            msg.organizer_position,
            msg.organizer_il,
            msg.organizer_axial,
            msg.organizer_hops,
            msg.root_epoch,
            msg.root_heard_at,
        )
        mine: Optional[HeadAssignment] = None
        for assignment in msg.assignments:
            self._remember_head(
                assignment.node_id,
                assignment.position,
                assignment.il,
                assignment.axial,
                msg.organizer_hops + 1,
                msg.root_epoch,
                msg.root_heard_at,
            )
            if assignment.node_id == self.node_id:
                mine = assignment
        if mine is not None and not self.state.status.is_head_like:
            self._become_head(mine, msg)
            return
        if self.state.status in (NodeStatus.BOOTUP, NodeStatus.ASSOCIATE):
            self._choose_best_known_head()

    def _become_head(self, assignment: HeadAssignment, msg: HeadSet) -> None:
        """The node was selected: transit to status *head* and organise
        its own neighbourhood."""
        state = self.state
        state.status = NodeStatus.HEAD
        state.cell_axial = assignment.axial
        state.oil = self.rt.lattice.point(assignment.axial)
        state.current_il = (
            assignment.il if self.cfg.anchor_on_il else self.position
        )
        state.icc_icp = msg.organizer_icc_icp
        state.parent_id = msg.sender
        state.parent_il = msg.organizer_il
        state.hops_to_root = msg.organizer_hops + 1
        self._merge_root_freshness(msg.root_epoch, msg.root_heard_at)
        state.head_id = None
        state.head_position = None
        state.is_candidate = False
        self.rt.trace(
            "head.become",
            self.node_id,
            axial=state.cell_axial,
            parent=state.parent_id,
        )
        self.on_became_head()
        self.rt.sim.call_soon(self.start_head_org)

    def on_became_head(self) -> None:
        """Hook for subclasses (GS3-D arms maintenance timers here)."""

    def _choose_best_known_head(self) -> None:
        """ASSOCIATE_ORG_RESP's closing step: adopt the best head heard.

        Picks the closest known head; re-evaluated every time a new
        HeadSet or Org is overheard, which realises the convergence to
        F3 (each associate ends up with the closest head).
        """
        if not self.known_heads:
            return
        position = self.position
        best = min(
            self.known_heads.values(),
            key=lambda info: (position.distance_to(info.position), info.node_id),
        )
        state = self.state
        if state.status is NodeStatus.ASSOCIATE and state.head_id == best.node_id:
            return
        cfg = self.cfg
        if (
            state.status is NodeStatus.ASSOCIATE
            and state.head_id is not None
            and state.head_position is not None
            and self.rt.sim.now - state.head_last_heard
            <= cfg.failure_timeout
        ):
            # The current head is alive: only a strictly better head
            # justifies switching (prevents churn when the known-heads
            # table holds a mere subset of the neighbourhood).
            current_d = position.distance_to(state.head_position)
            if position.distance_to(best.position) >= current_d - 1e-9:
                return
        previous = state.head_id
        state.status = NodeStatus.ASSOCIATE
        state.head_id = best.node_id
        state.head_position = best.position
        state.cell_axial = best.axial
        state.current_il = best.il
        state.is_candidate = (
            position.distance_to(best.il) <= cfg.radius_tolerance
        )
        if previous != best.node_id:
            self.rt.trace(
                "associate.join",
                self.node_id,
                head=best.node_id,
                previous=previous,
            )
            self.on_joined_cell(previous)

    def on_joined_cell(self, previous_head: Optional[NodeId]) -> None:
        """Hook for subclasses (GS3-D notifies the old/new heads)."""

    # -- shared bookkeeping -------------------------------------------------------

    def _remember_head(
        self,
        node_id: NodeId,
        position: Vec2,
        il: Vec2,
        axial: Axial,
        hops: int,
        root_epoch: int = 0,
        root_heard_at: Optional[float] = None,
    ) -> None:
        if root_epoch > self._max_epoch_heard:
            self._max_epoch_heard = root_epoch
        if node_id == self.node_id:
            return
        # Local knowledge: only heads within the coordination radius
        # are remembered, keeping per-node state constant in network
        # size (Section 3.3.4).
        if self.position.distance_to(position) > self.cfg.recommended_max_range:
            return
        # Positional, in field order: this runs for every head heard,
        # and keyword construction costs about twice as much.
        self.known_heads[node_id] = KnownHead(
            node_id,
            position,
            il,
            axial,
            hops,
            self.rt.sim.now,
            root_epoch,
            root_heard_at,
        )

    def forget_head(self, node_id: NodeId) -> None:
        """Drop a head from the known-heads table (on failure)."""
        self.known_heads.pop(node_id, None)


Gs3StaticNode.handlers = HandlerTable(Gs3StaticNode)
