"""Per-node protocol state.

The paper's programs are guarded commands over a status variable ``q``
plus a handful of relational variables (parent, children, head,
candidate set, ...).  ``NodeStatus`` enumerates every ``q`` value used
across GS3-S/D/M, and :class:`ProtocolState` carries the relational
variables.  Keeping the state a plain (mutable) dataclass — separate
from behaviour — makes the invariant checkers and the corruption
injector straightforward.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..geometry import Axial, IccIcp, Vec2
from ..net import NodeId

__all__ = ["NodeStatus", "NeighborInfo", "ProtocolState"]


class NodeStatus(enum.Enum):
    """The status variable ``q`` of the paper's programs."""

    #: Initial status; also re-entered after disconnection/abandonment.
    BOOTUP = "bootup"
    #: Selected as a cell head, HEAD_ORG not yet completed.
    HEAD = "head"
    #: A head that has completed HEAD_ORG (steady state for heads).
    WORK = "work"
    #: Non-head member of a cell.
    ASSOCIATE = "associate"
    #: The big node while its original cell's IL has slid away (GS3-D).
    BIG_SLIDE = "big_slide"
    #: The big node while away from any IL (GS3-M).
    BIG_MOVE = "big_move"

    @property
    def is_head_like(self) -> bool:
        """Whether the node currently acts as a cell head."""
        # HEAD or WORK, tested on the value against a constant tuple:
        # naming the members would look both up on every call.
        return self._value_ in ("head", "work")


@dataclass(slots=True)
class NeighborInfo:
    """What a head knows about one neighbouring head."""

    node_id: NodeId
    axial: Axial
    il: Vec2
    position: Vec2
    hops_to_root: int
    icc_icp: IccIcp = (0, 0)
    last_heard: float = 0.0
    #: Root epoch the neighbour advertised with its hop count.
    root_epoch: int = 0
    #: The neighbour's advertised root freshness (``None`` = unknown).
    root_heard_at: Optional[float] = None


@dataclass(slots=True)
class ProtocolState:
    """The relational variables of one node's program.

    Only the fields relevant to the node's current status are
    meaningful; the rest are ``None``/empty — exactly as in the paper's
    programs, where e.g. ``CH(i)`` is only maintained while ``i`` is a
    head.
    """

    status: NodeStatus = NodeStatus.BOOTUP

    # -- cell identity (heads and associates) ---------------------------
    #: Axial address of the node's cell in the IL lattice.
    cell_axial: Optional[Axial] = None
    #: The cell's *original* ideal location (OIL).
    oil: Optional[Vec2] = None
    #: The cell's current <ICC, ICP> (advances under cell shift).
    icc_icp: IccIcp = (0, 0)
    #: The cell's current ideal location.
    current_il: Optional[Vec2] = None

    # -- head-only state --------------------------------------------------
    #: Parent head in the head graph (self for the root).
    parent_id: Optional[NodeId] = None
    #: IL of the parent's cell (reference direction for HEAD_SELECT).
    parent_il: Optional[Vec2] = None
    #: Hop count to the root of the head graph.
    hops_to_root: int = 0
    #: Last known position of the root (big node or its proxy); the
    #: lattice origin until told otherwise.
    root_position: Optional[Vec2] = None
    #: Monotonic epoch of the root this node's tree path serves.  Only
    #: roots originate epochs (DSDV-style); 0 = no root heard yet.
    root_epoch: int = 0
    #: Virtual time this node's root path last carried a live root
    #: stamp.  Roots stamp every beat; children merge their parent's
    #: value, so in a rootless parent cycle the value stops advancing
    #: and the staleness horizon dissolves the cycle.
    root_heard_at: Optional[float] = None
    #: Children heads.
    children: Set[NodeId] = field(default_factory=set)
    #: Known neighbouring heads, keyed by their cell axial.
    neighbor_heads: Dict[Axial, NeighborInfo] = field(default_factory=dict)
    #: Ids of live candidates (associates within R_t of the current IL).
    candidate_ids: Set[NodeId] = field(default_factory=set)
    #: Ids and positions of live associates, refreshed by heartbeats.
    associate_positions: Dict[NodeId, Vec2] = field(default_factory=dict)

    # -- associate-only state -----------------------------------------------
    #: The associate's head.
    head_id: Optional[NodeId] = None
    #: Last known position of the head.
    head_position: Optional[Vec2] = None
    #: Whether this associate is a candidate of its cell.
    is_candidate: bool = False
    #: Rank of this node in the cell's candidate list (0 = best).
    candidate_rank: Optional[int] = None
    #: Last time a heartbeat from the head was received.
    head_last_heard: float = 0.0
    #: Candidate ids of the cell, as last broadcast by the head.
    known_candidates: Tuple[NodeId, ...] = ()
    #: Surrogate-head flag: the node joined via an associate because no
    #: head was in range (GS3-D node join).
    surrogate_of: Optional[NodeId] = None

    def reset(self) -> None:
        """Return to a clean BOOTUP state (used on abandonment and by
        the corruption-recovery path)."""
        self.status = NodeStatus.BOOTUP
        self.cell_axial = None
        self.oil = None
        self.icc_icp = (0, 0)
        self.current_il = None
        self.parent_id = None
        self.parent_il = None
        self.hops_to_root = 0
        self.root_position = None
        self.root_epoch = 0
        self.root_heard_at = None
        self.children = set()
        self.neighbor_heads = {}
        self.candidate_ids = set()
        self.associate_positions = {}
        self.head_id = None
        self.head_position = None
        self.is_candidate = False
        self.candidate_rank = None
        self.head_last_heard = 0.0
        self.known_candidates = ()
        self.surrogate_of = None
