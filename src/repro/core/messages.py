"""Protocol messages.

One frozen dataclass per message named in the paper's module
descriptions (Appendix 2), plus the join handshake of GS3-D.  Messages
carry exact ILs as lattice data (axial coordinates + the lattice
parameters implicit in the configuration) — this is the information the
paper diffuses via ``GR`` and ``IL`` and is what keeps head placement
drift-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..geometry import Axial, IccIcp, Vec2
from ..net import NodeId

__all__ = [
    "Message",
    "Org",
    "OrgReply",
    "HeadOrgReply",
    "HeadAssignment",
    "HeadSet",
    "JoinProbe",
    "HeadJoinOffer",
    "AssociateJoinOffer",
    "JoinAccept",
    "HeadIntraAlive",
    "AssociateAlive",
    "AssociateRetreat",
    "HeadRetreat",
    "HeadClaim",
    "ReplacingHead",
    "CellAbandoned",
    "HeadDisconnected",
    "HeadInterAlive",
    "NewChildHead",
    "ParentSeek",
    "ParentSeekAck",
    "RootSeek",
    "SanityCheckReq",
    "SanityCheckValid",
    "HeadRetreatCorrupted",
    "ProxyGrant",
    "ProxyRevoke",
]


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages."""

    sender: NodeId

    #: The root epoch a message advertises; 0 for the kinds that carry
    #: none.  A plain class attribute, not a field: the kinds that carry
    #: an epoch declare their own ``root_epoch`` field.
    root_epoch = 0


# ---------------------------------------------------------------------------
# Head organisation (GS3-S): HEAD_ORG / HEAD_ORG_RESP / ASSOCIATE_ORG_RESP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Org(Message):
    """Head ``sender`` opens a HEAD_ORG round (message *org*).

    Attributes:
        head_position: physical position of the organising head.
        il: current IL of the organising head's cell.
        axial: the organising cell's axial address.
        icc_icp: the organising cell's <ICC, ICP>.
        hops_to_root: the organiser's distance (hops) to the root.
        root_epoch: monotonic epoch of the root the organiser serves
            (DSDV-style sequence number; 0 = unknown/legacy).
        root_heard_at: virtual time the organiser's root path last
            carried a live root stamp (``None`` = unknown).
    """

    head_position: Vec2
    il: Vec2
    axial: Axial
    icc_icp: IccIcp
    hops_to_root: int
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class OrgReply(Message):
    """A small node reports its state in response to *org*."""

    position: Vec2
    has_head: bool


@dataclass(frozen=True)
class HeadOrgReply(Message):
    """An existing head reports its cell in response to *org*."""

    position: Vec2
    il: Vec2
    axial: Axial
    icc_icp: IccIcp
    hops_to_root: int
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class HeadAssignment:
    """One selected head inside a :class:`HeadSet` broadcast."""

    node_id: NodeId
    position: Vec2
    il: Vec2
    axial: Axial


@dataclass(frozen=True)
class HeadSet(Message):
    """HEAD_ORG's closing broadcast: the selected neighbour heads.

    Also carries the organiser's own identity so that listening nodes
    can (re)evaluate their choice of head.
    """

    organizer_position: Vec2
    organizer_il: Vec2
    organizer_axial: Axial
    organizer_icc_icp: IccIcp
    organizer_hops: int
    assignments: Tuple[HeadAssignment, ...]
    #: Root liveness of the organiser: new heads inherit this as their
    #: initial root view.
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


# ---------------------------------------------------------------------------
# Node join (GS3-D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinProbe(Message):
    """A booting node looks for a nearby head or associate."""

    position: Vec2


@dataclass(frozen=True)
class HeadJoinOffer(Message):
    """A head answers a join probe (HEAD_JOIN_RESP)."""

    position: Vec2
    il: Vec2
    axial: Axial
    icc_icp: IccIcp
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class AssociateJoinOffer(Message):
    """An associate answers a join probe (ASSOCIATE_JOIN_RESP)."""

    position: Vec2
    head_id: Optional[NodeId]


@dataclass(frozen=True)
class JoinAccept(Message):
    """The joining node commits to a head (or surrogate associate)."""

    position: Vec2
    via_surrogate: bool


# ---------------------------------------------------------------------------
# Intra-cell maintenance (GS3-D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeadIntraAlive(Message):
    """Head heartbeat within its cell (*head_intra_alive*).

    Carries the cell's current IL and the (ranked) candidate list so
    that candidates can elect a replacement without extra coordination
    when the head fails.
    """

    position: Vec2
    axial: Axial
    oil: Vec2
    current_il: Vec2
    icc_icp: IccIcp
    candidates: Tuple[NodeId, ...]
    hops_to_root: int
    #: Current position of the root (big node or proxy), diffused down
    #: the tree so heads can pick the neighbour closest to it.
    root_position: Optional[Vec2] = None
    #: Root liveness of the sender's path to the root (see
    #: :class:`HeadInterAlive`); associates inherit it so a later claim
    #: starts from an honest freshness value.
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class AssociateAlive(Message):
    """Associate heartbeat reply (*associate_alive* / *head_intra_ack*)."""

    position: Vec2


@dataclass(frozen=True)
class AssociateRetreat(Message):
    """An associate leaves the cell (found a better head)."""


@dataclass(frozen=True)
class HeadRetreat(Message):
    """The head retreats to associate (*head_retreat*).

    When the retreat is part of a cell shift, ``new_il``/``new_icc_icp``
    carry the shifted ideal location and ``new_candidates`` its ranked
    candidate set.
    """

    new_il: Optional[Vec2] = None
    new_icc_icp: Optional[IccIcp] = None
    new_candidates: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class HeadClaim(Message):
    """A candidate claims headship of its cell after head failure."""

    position: Vec2
    axial: Axial
    oil: Vec2
    current_il: Vec2
    icc_icp: IccIcp
    hops_to_root: int
    root_position: Optional[Vec2] = None
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class ReplacingHead(Message):
    """The big node (or a better candidate) takes over as head."""

    position: Vec2


@dataclass(frozen=True)
class CellAbandoned(Message):
    """The head dissolves a heavily perturbed cell (*cell_abandoned*)."""


@dataclass(frozen=True)
class HeadDisconnected(Message):
    """A head that lost all routes to the root dissolves its cell."""


# ---------------------------------------------------------------------------
# Inter-cell maintenance (GS3-D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeadInterAlive(Message):
    """Head-to-head heartbeat (*head_inter_alive*)."""

    position: Vec2
    axial: Axial
    il: Vec2
    icc_icp: IccIcp
    hops_to_root: int
    parent_id: Optional[NodeId]
    #: True when the sender is the big node's proxy (GS3-M): it
    #: advertises distance zero to the root.
    is_root: bool = False
    #: Current position of the root (big node or proxy).
    root_position: Optional[Vec2] = None
    #: Monotonic root epoch of the sender's path to the root.  Only a
    #: root originates a new epoch; everyone else copies its parent's.
    root_epoch: int = 0
    #: Virtual time the sender's root path last carried a live root
    #: stamp (roots stamp "now" each beat; the value diffuses one hop
    #: per beat).  ``None`` = unknown (legacy sender) — receivers treat
    #: that as fresh.
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class NewChildHead(Message):
    """A head adopts the receiver as its parent (*new_child_head*)."""

    axial: Axial


@dataclass(frozen=True)
class ParentSeek(Message):
    """A head that lost its parent probes for a new one (*parent_seek*)."""

    axial: Axial
    #: The seeker's own (stale) root view, for diagnostics and so that
    #: responders can tell a fresh seeker from a wedged one.
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class ParentSeekAck(Message):
    """Positive answer to :class:`ParentSeek` (*parent_seek_ack*)."""

    axial: Axial
    hops_to_root: int
    root_epoch: int = 0
    root_heard_at: Optional[float] = None


@dataclass(frozen=True)
class RootSeek(Message):
    """ROOT_SEEK: a head whose root freshness expired probes for any
    head that still has a *fresh-epoch* path to a root.

    Answered (like :class:`ParentSeek`) with a full
    :class:`HeadInterAlive` — but only by heads whose own root view is
    fresh, so a wedge of mutually stale heads cannot echo each other
    back to health.  If no answer restores a parent within the election
    grace, the seeker runs the deterministic replacement-root election.
    """

    axial: Axial
    #: Highest root epoch the seeker has ever heard (a regenerated root
    #: must exceed every epoch any elector has seen).
    max_epoch_heard: int = 0


# ---------------------------------------------------------------------------
# Sanity checking (GS3-D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SanityCheckReq(Message):
    """A head asks its neighbours to validate their state."""

    axial: Axial


@dataclass(frozen=True)
class SanityCheckValid(Message):
    """A neighbour confirms its state satisfies the local invariant."""

    axial: Axial
    il: Vec2
    icc_icp: IccIcp


@dataclass(frozen=True)
class HeadRetreatCorrupted(Message):
    """A head found its own state corrupted and steps down."""


# ---------------------------------------------------------------------------
# Big-node slide/move support (GS3-D BIG_SLIDE, GS3-M BIG_MOVE)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProxyGrant(Message):
    """The big node appoints the receiver as root proxy.

    While the big node is not itself a head (status *big_slide* or
    *big_move*), the appointed head advertises distance zero to the
    root so the head graph stays a minimum-distance tree towards the
    big node.
    """

    #: The big node's root epoch at grant time; the proxy continues it
    #: (merge-max with its own), keeping epoch continuity across slides.
    root_epoch: int = 0


@dataclass(frozen=True)
class ProxyRevoke(Message):
    """The big node withdraws a previous proxy appointment."""
