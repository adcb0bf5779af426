"""Data-plane packet records.

A :class:`Packet` describes one application-layer datagram (created
once by a workload generator); a :class:`DataFrame` is the envelope
that hops link by link.  Both are slotted dataclasses, built
positionally on the hot path and never mutated after construction: the
plane builds a fresh frame for every transmission, so a frame held by a
scheduled delivery is never changed underneath it, and both pickle
across the sharded executor's IPC boundary.  Neither is frozen (a
frozen dataclass sets each field through ``object.__setattr__`` and
costs about four times as much to build), so neither is hashable;
nothing keys a dict or a set by one.

The frame no longer drags its full node trace along: the path lives in
the plane's append-only :class:`~repro.traffic.stream.HopLog` (indexed
by pid), and the frame carries only ``hop`` — the index of its last
logged arrival — so per-hop cost stays flat no matter how long the
route gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..net import NodeId

__all__ = ["Packet", "DataFrame", "TERMINAL_OUTCOMES"]


#: Every packet ends in exactly one of these outcomes (or ``missing``
#: when still in flight / delivered to a node that died first).
TERMINAL_OUTCOMES = (
    "delivered",
    "dropped",
    "ttl_expired",
    "no_route",
    "node_died",
    "source_dead",
)


@dataclass(slots=True)
class Packet:
    """One application datagram, timestamped at creation.

    ``dst_pos`` is the destination's position captured at generation
    time (the usual geographic-routing location-service assumption);
    carrying it in the packet keeps forwarding decisions purely local.
    """

    pid: int
    kind: str  # "p2p" | "converge" | "cbr" | "burst"
    created_at: float
    src: NodeId
    dst: NodeId
    dst_pos: Tuple[float, float]


@dataclass(slots=True)
class DataFrame:
    """The hop-by-hop envelope around a :class:`Packet`.

    ``visited`` holds the nodes of the *current* routing attempt, for
    loop avoidance — it resets on retry so a healed structure can be
    re-tried along previously rejected links; routers only test
    membership.  ``hop`` is the index of the frame's most recent entry
    in the plane's hop log (0 = the source at injection); the full
    trace is reconstructed from the log, never carried on the frame.
    """

    packet: Packet
    ttl: int
    visited: Tuple[NodeId, ...]
    retries: int = 0
    hop: int = 0
