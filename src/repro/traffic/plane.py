"""The event-driven forwarding plane.

One :class:`ForwardingPlane` attaches to a :class:`~repro.net.radio.Radio`
(via ``radio.data_plane``) and owns every in-flight
:class:`~repro.traffic.packets.DataFrame` on that simulator.  Packets
hop link by link through :meth:`Radio.send_data` — each hop consults
the channel fault model (loss, jams, jitter), so data traffic
experiences exactly the adversity the control plane does — and the
per-hop routing decision is re-made at every node, which is what lets
a packet survive the structure healing underneath it mid-flight: a
stalled packet backs off ``retry_delay`` and re-consults its router
with a cleared loop-avoidance set.

Hot-path layout (built for ~10⁵ packets per replicate):

* Paths live in an append-only struct-of-arrays
  :class:`~repro.traffic.stream.HopLog` — five flat appends per
  arrival, positions captured at write time — instead of a growing
  tuple rebuilt on every frame.
* Held packets live in an array-backed :class:`InFlightTable`
  (pid / holder / ttl / retries / hop / next-fire as parallel arrays
  with slot recycling).  The retry timer is one *shared bound method*
  per plane: every pending retry schedules the same callback object
  and pops its state from the holder's FIFO, so the scheduler never
  stores a per-packet ``partial``/closure.
* Terminal records are ``pid -> (outcome, time)`` — two scalars — and
  can be written through to a
  :class:`~repro.traffic.stream.JsonlRecordStream` in batches so the
  replicate never holds every record in memory.

Determinism: frames are delivered through the radio's lane-keyed
dispatch, retries claim keys from the holding node's *data* lane
(``DATA_LANE_BASE + node``) — never from protocol lanes, whose
counters replay in lockstep on every shard mirroring the node — and
terminal records are keyed by globally unique packet ids, so the
merged record map is byte-identical at every worker and shard count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from ..core.runtime import Gs3Runtime
from ..geometry import Vec2
from ..net import NodeId
from ..sim.engine import DATA_LANE_BASE
from ..routing.hybrid import DATA_ROUTERS, FORWARD
from .packets import DataFrame, Packet
from .stream import HopLog, JsonlRecordStream

__all__ = ["ForwardingPlane", "InFlightTable"]

#: Legacy-shaped terminal record: (outcome, time, path of node ids).
Record = Tuple[str, float, Tuple[NodeId, ...]]


class InFlightTable:
    """Array-backed state of packets held for a routing retry.

    Struct-of-arrays with slot recycling: one row per held packet,
    freed rows are reused, and :meth:`pop` returns the row as a plain
    tuple.  The plane addresses rows through one FIFO queue per holding
    node, so the retry callback needs no per-packet binding at all.
    """

    __slots__ = (
        "pid", "holder", "ttl", "retries", "hop", "next_fire",
        "packet", "_free", "live",
    )

    def __init__(self) -> None:
        self.pid: List[int] = []
        self.holder: List[int] = []
        self.ttl: List[int] = []
        self.retries: List[int] = []
        self.hop: List[int] = []
        self.next_fire: List[float] = []
        self.packet: List[Optional[Packet]] = []
        self._free: List[int] = []
        self.live = 0

    def add(
        self,
        packet: Packet,
        holder: NodeId,
        ttl: int,
        retries: int,
        hop: int,
        next_fire: float,
    ) -> int:
        """Store one held packet; returns its row index."""
        self.live += 1
        if self._free:
            row = self._free.pop()
            self.pid[row] = packet.pid
            self.holder[row] = holder
            self.ttl[row] = ttl
            self.retries[row] = retries
            self.hop[row] = hop
            self.next_fire[row] = next_fire
            self.packet[row] = packet
            return row
        row = len(self.pid)
        self.pid.append(packet.pid)
        self.holder.append(holder)
        self.ttl.append(ttl)
        self.retries.append(retries)
        self.hop.append(hop)
        self.next_fire.append(next_fire)
        self.packet.append(packet)
        return row

    def pop(self, row: int) -> Tuple[Packet, int, int, int, int]:
        """Free a row, returning ``(packet, holder, ttl, retries, hop)``."""
        packet = self.packet[row]
        assert packet is not None
        out = (packet, self.holder[row], self.ttl[row],
               self.retries[row], self.hop[row])
        self.packet[row] = None  # drop the reference for GC
        self._free.append(row)
        self.live -= 1
        return out


class ForwardingPlane:
    """Hop-by-hop packet forwarding over one runtime's radio."""

    def __init__(
        self,
        runtime: Gs3Runtime,
        config: Mapping[str, Any],
        stream: Optional[JsonlRecordStream] = None,
    ):
        self.runtime = runtime
        router_kind = str(config.get("router", "cell"))
        try:
            router_cls = DATA_ROUTERS[router_kind]
        except KeyError:
            raise ValueError(f"unknown traffic router {router_kind!r}") from None
        self.router = router_cls(runtime)
        self.ttl = int(config.get("ttl", 32))
        self.max_retries = int(config.get("max_retries", 3))
        self.retry_delay = float(config.get("retry_delay", 5.0))
        #: Terminal ``pid -> (outcome, time)`` (exactly one writer per
        #: pid: the frame lives on a single node, hence a single shard).
        self.terminals: Dict[int, Tuple[str, float]] = {}
        #: Optional JSONL spill; when set, hops bypass memory entirely.
        self.stream = stream
        #: In-memory hop log (``None`` when spilling to a stream).
        self.hop_log: Optional[HopLog] = HopLog() if stream is None else None
        #: Data transmissions attempted per node (hotspot histogram).
        self.relay_load: Dict[NodeId, int] = {}
        #: Held packets awaiting their retry backoff.
        self.table = InFlightTable()
        #: Held rows per holding node, in retry order.
        self._held: Dict[NodeId, Deque[int]] = {}
        runtime.radio.data_plane = self

    # -- Radio integration -------------------------------------------

    def claims(self, payload: object) -> bool:
        """Radio asks: is this delivery ours rather than the protocol's?"""
        return type(payload) is DataFrame

    def on_frame(self, frame: DataFrame, dest_id: NodeId, sender_id: NodeId) -> None:
        """A frame arrived at ``dest_id`` (alive — radio checked)."""
        packet = frame.packet
        hop = frame.hop + 1
        self._log_hop(packet.pid, hop, dest_id)
        if dest_id == packet.dst:
            self._record(packet.pid, "delivered", self.runtime.sim.now)
            return
        self._forward(
            dest_id,
            replace(frame, visited=frame.visited + (dest_id,), hop=hop),
        )

    # -- driver entry points ------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Originate ``packet`` at its source, now."""
        frame = self._admit(packet)
        if frame is not None:
            self._forward(packet.src, frame)

    def inject_batch(self, packets: List[Packet]) -> None:
        """Originate a batch of same-source packets in one event.

        Routing decisions are made up front (they read structure state
        only, which nothing in this call mutates), then maximal runs of
        consecutive forwards go through
        :meth:`~repro.net.radio.Radio.send_data_batch` — one sender
        validation for the whole run.  Per-sender fault draws and lane
        keys are claimed in exact packet order, so the trajectory is
        identical to injecting the packets one event at a time.
        """
        router = self.router
        plan: List[Tuple[NodeId, DataFrame, str, Optional[NodeId]]] = []
        for packet in packets:
            frame = self._admit(packet)
            if frame is None:
                continue
            action, target = router.decide(
                packet.src, packet.dst, Vec2(*packet.dst_pos),
                set(frame.visited),
            )
            plan.append((packet.src, frame, action, target))
        radio = self.runtime.radio
        now = self.runtime.sim.now
        relay = self.relay_load
        i, n = 0, len(plan)
        while i < n:
            node_id, frame, action, target = plan[i]
            if frame.ttl <= 0:
                self._record(frame.packet.pid, "ttl_expired", now)
                i += 1
                continue
            if action != FORWARD or target is None:
                self._retry(node_id, frame)
                i += 1
                continue
            j = i
            items: List[Tuple[NodeId, DataFrame]] = []
            while (
                j < n
                and plan[j][0] == node_id
                and plan[j][2] == FORWARD
                and plan[j][3] is not None
                and plan[j][1].ttl > 0
            ):
                items.append(
                    (plan[j][3], replace(plan[j][1], ttl=plan[j][1].ttl - 1))
                )
                j += 1
            outcomes = radio.send_data_batch(node_id, items)
            for k, outcome in enumerate(outcomes):
                held = plan[i + k][1]
                if outcome == "sent" or outcome == "dropped":
                    relay[node_id] = relay.get(node_id, 0) + 1
                    if outcome == "dropped":
                        self._record(held.packet.pid, "dropped", now)
                else:
                    self._retry(node_id, held)
            i = j

    def _admit(self, packet: Packet) -> Optional[DataFrame]:
        """Log hop 0 and resolve trivial outcomes; a frame to route,
        or ``None`` when the packet terminated at the source."""
        now = self.runtime.sim.now
        src = packet.src
        self._log_hop(packet.pid, 0, src)
        phys = self.runtime.network.get(src)
        if phys is None or not phys.alive:
            self._record(packet.pid, "source_dead", now)
            return None
        if packet.src == packet.dst:
            self._record(packet.pid, "delivered", now)
            return None
        return DataFrame(packet=packet, ttl=self.ttl, visited=(src,))

    # -- forwarding core ----------------------------------------------

    def _forward(self, node_id: NodeId, frame: DataFrame) -> None:
        packet = frame.packet
        now = self.runtime.sim.now
        if frame.ttl <= 0:
            self._record(packet.pid, "ttl_expired", now)
            return
        action, target = self.router.decide(
            node_id, packet.dst, Vec2(*packet.dst_pos), set(frame.visited)
        )
        if action == FORWARD and target is not None:
            outcome = self.runtime.radio.send_data(
                node_id, target, replace(frame, ttl=frame.ttl - 1)
            )
            if outcome == "sent" or outcome == "dropped":
                # The transmission happened either way — it counts
                # toward this node's relay load.
                self.relay_load[node_id] = self.relay_load.get(node_id, 0) + 1
                if outcome == "dropped":
                    self._record(packet.pid, "dropped", now)
                return
            # unreachable / sender_dead: the table entry went stale
            # between decide() and send — hold and re-route.
        self._retry(node_id, frame)

    def _retry(self, node_id: NodeId, frame: DataFrame) -> None:
        sim = self.runtime.sim
        if frame.retries >= self.max_retries:
            self._record(frame.packet.pid, "no_route", sim.now)
            return
        # The held packet parks in the in-flight table (loop-avoidance
        # resets on resume so healed links become valid again), and the
        # timer event carries no state: one shared callback pops the
        # holder's FIFO.  Constant backoff + monotone per-lane keys
        # make FIFO order identical to fire order.
        fire_at = sim.now + self.retry_delay
        row = self.table.add(
            frame.packet, node_id, frame.ttl, frame.retries + 1,
            frame.hop, fire_at,
        )
        fifo = self._held.get(node_id)
        if fifo is None:
            fifo = self._held[node_id] = deque()
        fifo.append(row)
        lane = DATA_LANE_BASE + node_id
        sim.schedule_keyed(fire_at, sim.claim_key(lane), self._retry_due, lane)

    def _retry_due(self) -> None:
        holder = self.runtime.sim.current_lane - DATA_LANE_BASE
        packet, holder, ttl, retries, hop = self.table.pop(
            self._held[holder].popleft()
        )
        phys = self.runtime.network.get(holder)
        if phys is None or not phys.alive:
            self._record(packet.pid, "node_died", self.runtime.sim.now)
            return
        self._forward(
            holder,
            DataFrame(
                packet=packet, ttl=ttl, visited=(holder,),
                retries=retries, hop=hop,
            ),
        )

    # -- accounting ----------------------------------------------------

    def _log_hop(self, pid: int, hop: int, node: NodeId) -> None:
        phys = self.runtime.network.get(node)
        if phys is not None:
            position = phys.position
            x, y = position.x, position.y
        else:
            x = y = 0.0
        if self.hop_log is not None:
            self.hop_log.append(pid, hop, node, x, y)
        else:
            self.stream.add_hop(pid, hop, node, x, y)

    def _record(self, pid: int, outcome: str, time: float) -> None:
        prior = self.terminals.get(pid)
        if prior is not None and (
            outcome != "delivered" or prior[0] == "delivered"
        ):
            # One terminal outcome per packet — except that a delivery
            # always beats an earlier non-delivered verdict, so a
            # duplicated frame's early drop can never mask the copy
            # that made it.
            return
        self.terminals[pid] = (outcome, time)
        if self.stream is not None:
            self.stream.add_terminal(pid, outcome, time)

    @property
    def records(self) -> Dict[int, Record]:
        """Legacy-shaped ``pid -> (outcome, time, path)`` view.

        Reconstructs node-id paths from the hop log; only available
        when the log is in memory (no spill stream attached).
        """
        if self.hop_log is None:
            raise RuntimeError(
                "records are reconstructed from the in-memory hop log; "
                "replay the spill stream instead"
            )
        paths: Dict[int, List[NodeId]] = {}
        for pid, node in zip(self.hop_log.pid, self.hop_log.node):
            paths.setdefault(pid, []).append(node)
        return {
            pid: (outcome, time, tuple(paths.get(pid, ())))
            for pid, (outcome, time) in self.terminals.items()
        }
