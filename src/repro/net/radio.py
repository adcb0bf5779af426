"""The wireless channel: range-limited broadcast and unicast.

Transmission semantics follow Section 2.1 of the paper:

* *destination-aware* transmission (unicast to a known node) is
  reliable — acknowledgement and retransmission are assumed below this
  layer;
* *destination-unaware* transmission (broadcast) may be unreliable —
  deliveries are decided per receiver, either by the memoryless
  Bernoulli drop (``broadcast_loss``) or by a full
  :class:`~repro.net.faults.ChannelFaultModel` (bursty Gilbert–Elliott
  loss, latency jitter, duplication, regional jamming).

Every delivery costs one virtual-time tick by default (``hop_latency``)
so that protocol convergence measured in ticks corresponds to message
diffusion time, the unit of the paper's convergence bounds.  A fault
model may add per-delivery jitter on top.

Ordering: every delivery claims one lane key from the sender's lane
(data frames: from the sender's data lane) in canonical candidate
order and executes in the receiver's lane, and every fault draw
happens at *send* time from the sender's own streams — so lane
counters and fault streams advance identically whether the receiver is
simulated locally or in another shard.  With no fault model installed
(``faults is None`` and ``broadcast_loss == 0``) the broadcast loop
makes no fault draws at all.

Scheduling: a send's local deliveries are one queue entry, a *delivery
run* (:meth:`~repro.sim.engine.Simulator.schedule_run`), which the
engine delivers receiver by receiver in ``(arrival, key)`` order, each
at its own arrival time and in its own lane, exactly where one event
per receiver would have run.  A shard worker schedules the deliveries
other shards send it the same way.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import RngStreams, Simulator, Tracer
from ..sim.engine import DATA_LANE_BASE
from .faults import ChannelFaultModel
from .node import NodeId
from .topology import Network

__all__ = ["Radio", "DeliveryError"]

#: Message handler signature: ``handler(payload, sender_id)``.
Handler = Callable[[Any, NodeId], None]


class DeliveryError(RuntimeError):
    """Raised for unicast to an unreachable or unknown destination."""


class Radio:
    """Delivers messages between nodes of a :class:`Network`.

    Args:
        network: the node population.
        sim: discrete-event simulator driving deliveries.
        tracer: trace sink for message accounting.
        rng: random streams (used for broadcast loss); optional when
            ``broadcast_loss`` is zero and no fault model is installed.
        broadcast_loss: per-receiver drop probability for broadcasts.
            Internally this is the degenerate fault-model configuration
            (same ``radio.loss`` stream, draw for draw); richer channel
            behaviour goes through ``faults``.
        hop_latency: virtual-time delay of one transmission.
        faults: optional adversarial channel model, consulted once per
            broadcast delivery.  Mutually exclusive with a nonzero
            ``broadcast_loss`` — fold the Bernoulli probability into
            the model instead.
    """

    def __init__(
        self,
        network: Network,
        sim: Simulator,
        tracer: Optional[Tracer] = None,
        rng: Optional[RngStreams] = None,
        broadcast_loss: float = 0.0,
        hop_latency: float = 1.0,
        faults: Optional[ChannelFaultModel] = None,
    ):
        if not 0.0 <= broadcast_loss < 1.0:
            raise ValueError(
                f"broadcast_loss must be in [0, 1), got {broadcast_loss}"
            )
        if hop_latency <= 0.0:
            raise ValueError(
                f"hop_latency must be positive, got {hop_latency}"
            )
        if faults is not None and broadcast_loss:
            raise ValueError(
                "broadcast_loss and a fault model are mutually exclusive; "
                "set ChannelFaultModel(bernoulli_loss=...) instead"
            )
        self.network = network
        self.sim = sim
        # The fallback tracer is a pure sink nobody reads; disable it so
        # the three emits per broadcast hop cost one predicate each.
        self.tracer = tracer or Tracer(keep_records=False, enabled=False)
        self.broadcast_loss = broadcast_loss
        self.hop_latency = hop_latency
        self._rng = rng or RngStreams(0)
        if faults is None and broadcast_loss:
            faults = ChannelFaultModel(
                self._rng, bernoulli_loss=broadcast_loss
            )
        self.faults = faults
        self._handlers: Dict[NodeId, Handler] = {}
        # Sharded execution: a port deciding
        # whether a destination is simulated locally and carrying
        # cross-boundary deliveries to the coordinator.  ``None`` means
        # every destination is local.
        self.shard_port = None
        # Optional data plane (repro.traffic): a delivery whose payload
        # type is the plane's ``frame_type`` goes to its ``on_frame``
        # instead of the node's protocol handler.
        self.data_plane = None

    # -- handler registry -----------------------------------------------

    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Install the receive handler for a node (replacing any)."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: NodeId) -> None:
        """Remove a node's receive handler."""
        self._handlers.pop(node_id, None)

    # -- fault model ------------------------------------------------------

    def ensure_fault_model(self) -> ChannelFaultModel:
        """The installed fault model, creating a transparent one if none.

        Used by runtime jam injection: jamming needs a model to carry
        the windows, but a run configured without channel faults should
        not pay the fault path until the first jam actually arrives.
        """
        if self.faults is None:
            self.faults = ChannelFaultModel(self._rng)
        return self.faults

    # -- transmission -----------------------------------------------------

    def broadcast(
        self,
        sender_id: NodeId,
        payload: Any,
        tx_range: float,
    ) -> int:
        """Broadcast ``payload`` to every live node within ``tx_range``.

        Returns:
            The number of receivers a delivery was scheduled for (after
            loss; duplicate copies do not inflate the count).
        """
        sender = self.network.node(sender_id)
        if not sender.alive:
            return 0
        effective = min(tx_range, sender.max_range)
        self.tracer.emit(
            self.sim.now, "msg.broadcast", node=sender_id, tx_range=effective
        )
        now = self.sim.now
        arrival = now + self.hop_latency
        faults = self.faults
        candidates = self.network.broadcast_candidates(sender_id, effective)
        if faults is None:
            self._dispatch(
                sender_id,
                [(arrival, node.node_id, payload) for node in candidates],
            )
            return len(candidates)
        sender_pos = sender.position
        tracer = self.tracer
        deliveries = []
        scheduled = 0
        for receiver in candidates:
            dest_id = receiver.node_id
            if faults.drop_broadcast(
                now, sender_pos, receiver.position, sender_id
            ):
                tracer.emit(now, "msg.lost", node=dest_id, sender=sender_id)
                continue
            scheduled += 1
            deliveries.append(
                (arrival + faults.extra_latency(sender_id), dest_id, payload)
            )
            for _ in range(faults.extra_copies(sender_id)):
                tracer.emit(
                    now, "msg.duplicate", node=dest_id, sender=sender_id
                )
                deliveries.append(
                    (arrival + faults.extra_latency(sender_id), dest_id,
                     payload)
                )
        self._dispatch(sender_id, deliveries)
        return scheduled

    def unicast(self, sender_id: NodeId, dest_id: NodeId, payload: Any) -> bool:
        """Reliably send ``payload`` to a known destination.

        Unicast is *delivery-reliable even under a fault model*: the
        paper's destination-aware transmission assumes acknowledgement
        and retransmission below this layer, so channel loss manifests
        as latency, never as a silent drop.  Accordingly the fault
        model contributes only latency jitter here (one extra draw per
        send); loss, duplication, and jamming apply to broadcasts only.

        Returns:
            ``True`` if delivery was scheduled; ``False`` when the
            destination is dead, unknown, or out of range (the sender
            learns this through the absence of an acknowledgement — in
            simulation we surface it immediately as a return value).
        """
        network = self.network
        sender = network.node(sender_id)
        if not sender.alive:
            return False
        now = self.sim.now
        dest = network.get(dest_id)
        if (
            dest is None
            or not dest.alive
            or not sender.can_reach(dest.position)
        ):
            self.tracer.emit(now, "msg.unreachable", node=sender_id)
            return False
        self.tracer.emit(now, "msg.unicast", node=sender_id)
        faults = self.faults
        extra = faults.extra_latency(sender_id) if faults is not None else 0.0
        self._dispatch(
            sender_id, ((now + self.hop_latency + extra, dest_id, payload),)
        )
        return True

    def send_data(self, sender_id: NodeId, dest_id: NodeId, payload: Any) -> str:
        """Best-effort single-hop *data* transmission.

        Unlike :meth:`unicast`, data frames ride the unreliable
        channel: loss, bursty Gilbert–Elliott states, and jamming
        windows all apply (link-layer retransmission is not assumed for
        bulk data), plus latency jitter.  Duplication is skipped (the
        forwarding plane assumes link-layer dedup).  All draws come
        from the fault model's dedicated *data* streams
        (:meth:`~repro.net.faults.ChannelFaultModel.drop_data`): data
        sends execute only on the sender's owning shard, so letting
        them advance the protocol streams — which replay on mirror
        shards too — would desynchronise the replicas and make the
        trajectory shard-count-dependent.

        Returns one of:
            ``"sent"`` — delivery scheduled (arrives unless the
            receiver dies first);
            ``"dropped"`` — the channel ate the frame (loss or jam);
            ``"unreachable"`` — destination unknown, dead, or out of
            range;
            ``"sender_dead"`` — the sender is no longer alive.
        """
        network = self.network
        sender = network.node(sender_id)
        if not sender.alive:
            return "sender_dead"
        dest = network.get(dest_id)
        if (
            dest is None
            or not dest.alive
            or not sender.can_reach(dest.position)
        ):
            return "unreachable"
        now = self.sim.now
        self.tracer.emit(now, "msg.data", node=sender_id)
        faults = self.faults
        extra = 0.0
        if faults is not None:
            if faults.drop_data(now, sender.position, dest.position, sender_id):
                self.tracer.emit(now, "msg.lost", node=dest_id, sender=sender_id)
                return "dropped"
            extra = faults.data_latency(sender_id)
        self._dispatch(
            sender_id,
            ((now + self.hop_latency + extra, dest_id, payload),),
            DATA_LANE_BASE + sender_id,
        )
        return "sent"

    def send_data_batch(
        self, sender_id: NodeId, items: Sequence[Tuple[NodeId, Any]]
    ) -> List[str]:
        """Batched :meth:`send_data`: many frames from one sender.

        Semantically identical to calling :meth:`send_data` once per
        ``(dest_id, payload)`` in item order — per-sender fault draws
        and lane keys are claimed in exactly that order, so a batched
        burst and a sequential one produce the same trajectory — but
        the sender lookup and fault model are hoisted out of the loop,
        which is what keeps 10⁵-packet bursts cheap.
        """
        sender = self.network.node(sender_id)
        if not sender.alive:
            return ["sender_dead"] * len(items)
        network = self.network
        now = self.sim.now
        hop = self.hop_latency
        faults = self.faults
        tracer = self.tracer
        sender_pos = sender.position
        can_reach = sender.can_reach
        deliveries = []
        outcomes: List[str] = []
        for dest_id, payload in items:
            dest = network.get(dest_id)
            if dest is None or not dest.alive or not can_reach(dest.position):
                outcomes.append("unreachable")
                continue
            tracer.emit(now, "msg.data", node=sender_id)
            if faults is not None:
                if faults.drop_data(
                    now, sender_pos, dest.position, sender_id
                ):
                    tracer.emit(
                        now, "msg.lost", node=dest_id, sender=sender_id
                    )
                    outcomes.append("dropped")
                    continue
                extra = faults.data_latency(sender_id)
            else:
                extra = 0.0
            deliveries.append((now + hop + extra, dest_id, payload))
            outcomes.append("sent")
        self._dispatch(sender_id, deliveries, DATA_LANE_BASE + sender_id)
        return outcomes

    # -- delivery ----------------------------------------------------------

    def _dispatch(
        self,
        sender_id: NodeId,
        deliveries: Sequence[Tuple[float, NodeId, Any]],
        lane: Optional[int] = None,
    ) -> None:
        """Schedule ``(arrival, dest_id, payload)`` deliveries in order.

        Each claims the next key of ``lane`` (default: the current
        lane, the sender's) and runs in the receiver's lane — here, in
        one delivery run, or in the receiver's shard through the shard
        port.
        """
        if not deliveries:
            return
        lane, seq = self.sim.claim_key(lane, len(deliveries))
        port = self.shard_port
        items = []
        for arrival, dest_id, payload in deliveries:
            key = (lane, seq)
            seq += 1
            if port is None or port.is_local(dest_id):
                items.append((arrival, key, dest_id, payload))
            else:
                port.send_delivery(arrival, key, sender_id, dest_id, payload)
        self.schedule_run(sender_id, items, self.faults is None)

    def schedule_run(
        self, sender_id: NodeId, items: List[tuple], in_order: bool
    ) -> None:
        """Schedule ``sender_id``'s ``(arrival, key, dest_id, payload)``
        deliveries, listed in claim order, as one delivery run.

        ``in_order`` says the list is already in ``(arrival, key)``
        order (one arrival time for all, as without a fault model);
        otherwise it is sorted here.  A single delivery (a unicast, most
        data frames) is one plain keyed event: a one-receiver run has
        nothing to merge and its cursor costs two calls more
        (EXPERIMENTS § DELIVERY-RUNS).
        """
        if not items:
            return
        if len(items) == 1:
            arrival, key, dest_id, payload = items[0]
            self.sim.schedule_keyed(
                arrival,
                key,
                partial(self._deliver, sender_id, dest_id, payload),
                dest_id,
            )
            return
        if in_order:
            items.reverse()
        else:
            items.sort(reverse=True)
        self.sim.schedule_run(items, partial(self._deliver_run, sender_id))

    def _deliver_run(self, sender_id: NodeId) -> None:
        """A delivery run's callback: a radio frame, so that a profiler
        files the run's work under radio delivery."""
        self.sim.resume_run(self._deliver, sender_id)

    def _deliver(self, sender_id: NodeId, dest_id: NodeId, payload: Any) -> None:
        receiver = self.network.get(dest_id)
        if receiver is None or not receiver.alive:
            return
        plane = self.data_plane
        if plane is not None and type(payload) is plane.frame_type:
            self.tracer.emit(self.sim.now, "msg.deliver", node=dest_id)
            plane.on_frame(payload, dest_id, sender_id)
            return
        handler = self._handlers.get(dest_id)
        if handler is None:
            return
        self.tracer.emit(self.sim.now, "msg.deliver", node=dest_id)
        handler(payload, sender_id)
