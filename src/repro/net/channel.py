"""Channel reservation for mutually exclusive HEAD_ORG execution.

GS3 requires that two heads within ``sqrt(3)*R + 2*R_t`` of each other
never run HEAD_ORG concurrently (the proof of Theorem 4 relies on it).
The paper models this as the head "reserving the wireless channel"
before broadcasting *org* and revoking the reservation afterwards; the
underlying MAC mechanism is left unspecified.

We reproduce those semantics with a centralised *mediator* — a
stand-in for a distributed reservation protocol, legitimate because
only the *mutual exclusion* behaviour is observable to GS3, not the
mechanism (see DESIGN.md, substitution table):

* a head requests an area lease (a disk around its IL) and later
  releases it; both take effect one ``hop_latency`` after the call —
  the hop to the mediator;
* the mediator processes operations in ``(effect time, claim key)``
  order and grants a waiting lease as soon as no overlapping lease is
  active, in processing order among conflicting requests;
* a grant fires at the effect time of the operation that freed it,
  keyed ``(CHANNEL_LANE, n)`` in grant order and executed in the
  requester's lane.

:class:`ChannelReservations` is the node-side half (one per
simulator); it carries each request and release to a
:class:`ChannelMediator`.  :class:`LocalChannel` runs the mediator on
the same simulator, for in-process runs; a sharded run's coordinator
hosts it instead and forwards grants at epoch barriers
(``repro.sim.shard``).  Both schedules are the same, so a grant lands
at the same ``(time, key)`` either way.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from ..geometry import Vec2
from ..sim import Simulator
from ..sim.engine import CHANNEL_LANE
from .node import NodeId

__all__ = [
    "ChannelLease",
    "ChannelMediator",
    "ChannelReservations",
    "LocalChannel",
]

#: A grant: ``(origin, time, key, lease_id)``.
Grant = Tuple[Any, float, Tuple[int, int], Tuple[int, int]]


@dataclass
class ChannelLease:
    """An exclusive-area channel reservation.

    ``lease_id`` is the lane key claimed by the request, unique in the
    run and the same at every shard count.
    """

    lease_id: Tuple[int, int]
    node_id: NodeId
    center: Vec2
    radius: float
    active: bool = False
    released: bool = False


class ChannelMediator:
    """Grants non-overlapping area leases in processing order.

    Operations arrive as plain tuples — ``("chan_req", time, key,
    (x, y), radius)`` and ``("chan_rel", time, key, lease_id)`` —
    tagged with an ``origin`` the grant is routed back to.
    :meth:`flush` is safe to call whenever no operation with an earlier
    effect time can still arrive: operations made by time ``t`` take
    effect after ``t + lookahead``.
    """

    def __init__(self, lookahead: float):
        self._lookahead = lookahead
        self._queue: List[tuple] = []
        self._waiting: List[dict] = []
        self._active: Dict[tuple, dict] = {}
        self._grants = itertools.count()

    def ingest(self, origin: Any, entry: tuple) -> None:
        """Queue one request or release made by ``origin``."""
        if entry[0] == "chan_req":
            _, time, key, center, radius = entry
            payload: Any = {
                "lease_id": key,
                "center": center,
                "radius": radius,
                "origin": origin,
                "released": False,
            }
        else:
            _, time, key, payload = entry
        heapq.heappush(
            self._queue, (time + self._lookahead, key, entry[0], payload)
        )

    def flush(self, until: float = math.inf) -> List[Grant]:
        """Process the queued operations taking effect by ``until``."""
        grants: List[Grant] = []
        queue = self._queue
        while queue and queue[0][0] <= until:
            time, _key, kind, payload = heapq.heappop(queue)
            if kind == "chan_req":
                self._waiting.append(payload)
            elif self._active.pop(payload, None) is None:
                for waiting in self._waiting:
                    if waiting["lease_id"] == payload:
                        waiting["released"] = True
                        break
            self._pump(time, grants)
        return grants

    @staticmethod
    def _conflicts(a: dict, b: dict) -> bool:
        reach = a["radius"] + b["radius"]
        dx = a["center"][0] - b["center"][0]
        dy = a["center"][1] - b["center"][1]
        return dx * dx + dy * dy <= reach * reach

    def _pump(self, time: float, grants: List[Grant]) -> None:
        still_waiting: List[dict] = []
        for lease in self._waiting:
            if lease["released"]:
                continue
            if any(
                self._conflicts(lease, active)
                for active in self._active.values()
            ):
                still_waiting.append(lease)
                continue
            self._active[lease["lease_id"]] = lease
            grants.append(
                (
                    lease["origin"],
                    time,
                    (CHANNEL_LANE, next(self._grants)),
                    lease["lease_id"],
                )
            )
        self._waiting = still_waiting


class ChannelReservations:
    """Node-side HEAD_ORG reservations on one simulator.

    ``submit(entry)`` carries each request and release to the
    mediator; the mediator's grants come back through :meth:`grant`.
    """

    def __init__(self, sim: Simulator, submit: Callable[[tuple], None]):
        self.sim = sim
        self._submit = submit
        #: Requested leases not yet granted or released.
        self._pending: Dict[tuple, tuple] = {}

    def request(
        self,
        node_id: NodeId,
        center: Vec2,
        radius: float,
        on_grant: Callable[[ChannelLease], None],
    ) -> ChannelLease:
        """Request an exclusive lease on the disk ``(center, radius)``.

        ``on_grant(lease)`` is called (as a simulator event) when the
        lease becomes active.  Cancel by calling :meth:`release` on the
        returned lease before it is granted.
        """
        key = self.sim.claim_key()
        lease = ChannelLease(key, node_id, center, radius)
        self._pending[key] = (lease, on_grant)
        self._submit(
            ("chan_req", self.sim.now, key, (center.x, center.y), radius)
        )
        return lease

    def release(self, lease: ChannelLease) -> None:
        """Release (or cancel) a lease."""
        if lease.released:
            return
        lease.released = True
        lease.active = False
        self._pending.pop(lease.lease_id, None)
        self._submit(
            ("chan_rel", self.sim.now, self.sim.claim_key(), lease.lease_id)
        )

    def grant(self, time: float, key: Tuple[int, int], lease_id) -> None:
        """Schedule the mediator's grant of ``lease_id``.

        A grant for a lease released meanwhile is dropped: the release
        is already on its way to the mediator.
        """
        entry = self._pending.pop(lease_id, None)
        if entry is not None:
            self.sim.schedule_keyed(
                time, key, partial(self._fire, *entry), entry[0].node_id
            )

    @staticmethod
    def _fire(lease: ChannelLease, on_grant) -> None:
        if not lease.released:
            lease.active = True
            on_grant(lease)


class LocalChannel(ChannelReservations):
    """Reservations whose mediator runs on the same simulator.

    The mediator flushes at each effect time, keyed ``(CHANNEL_LANE,
    -1)`` — after every node and data event of that instant, which
    includes every operation that takes effect then, and just before
    the grants it mints.
    """

    def __init__(self, sim: Simulator, lookahead: float):
        super().__init__(sim, self._queue_operation)
        self.mediator = ChannelMediator(lookahead)
        self._lookahead = lookahead
        self._flush_times: set = set()

    def _queue_operation(self, entry: tuple) -> None:
        self.mediator.ingest(None, entry)
        effect = entry[1] + self._lookahead
        if effect not in self._flush_times:
            self._flush_times.add(effect)
            self.sim.schedule_keyed(
                effect, (CHANNEL_LANE, -1), self._flush, CHANNEL_LANE
            )

    def _flush(self) -> None:
        now = self.sim.now
        self._flush_times.discard(now)
        for _origin, time, key, lease_id in self.mediator.flush(until=now):
            self.grant(time, key, lease_id)
