"""Traffic accounting: delivery, delay, stretch, hotspots.

:class:`TrafficFold` folds terminal records and hop-log entries
incrementally — O(packets) state, never the full per-packet paths — and
:func:`fold_traffic_report` drives it over the collected (or streamed)
records.  Everything is emitted in canonical order (sorted keys, sorted
hotspots) and contains no run-infrastructure values (worker/shard
counts, wall times), so the same workload on the same structure
serialises byte-identically at every execution configuration.

Path geometry is computed from the positions *captured when each hop
was logged* and the destination position carried in the packet — never
from the network at report time — so ``move`` perturbations after (or
during) a packet's flight cannot corrupt its geo distance or the
straight-line denominator.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..net import NodeId
from ..sim.metrics import percentile as _shared_percentile
from .packets import TERMINAL_OUTCOMES, Packet

__all__ = [
    "TrafficFold",
    "fold_traffic_report",
    "percentile",
]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence.

    Thin wrapper over the shared :func:`repro.sim.percentile`
    convention (``ceil(q * n) - 1``); an empty sequence yields 0.0
    because reports always emit every field.
    """
    if not sorted_values:
        return 0.0
    return _shared_percentile(sorted_values, q)


def _delay_stats(delays: List[float]) -> Dict[str, float]:
    if not delays:
        return {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    delays.sort()
    return {
        "mean": sum(delays) / len(delays),
        "p50": percentile(delays, 0.50),
        "p90": percentile(delays, 0.90),
        "p99": percentile(delays, 0.99),
        "max": delays[-1],
    }


class TrafficFold:
    """Incremental accumulator for one router's traffic report.

    Feed it terminal records and hop-log entries in any interleaving
    (hops of one packet must arrive in hop order — they do, from both
    the in-memory log and a stream replay), then :meth:`finish`.  Per
    packet it keeps six scalars of geometry state instead of the full
    path, so folding 10⁵ packets never materialises their traces.
    """

    def __init__(self, packets: Sequence[Packet]):
        self._packets = packets
        self._by_pid = {p.pid: p for p in packets}
        self._terminals: Dict[int, Tuple[str, float]] = {}
        #: pid -> [last_hop, last_x, last_y, geo_sum, x0, y0]
        self._geo: Dict[int, list] = {}

    def add_terminal(self, pid: int, outcome: str, time: float) -> None:
        prior = self._terminals.get(pid)
        if prior is not None and (
            outcome != "delivered" or prior[0] == "delivered"
        ):
            return  # delivered upgrades; nothing else does
        self._terminals[pid] = (outcome, time)

    def add_hop(
        self, pid: int, hop: int, node: NodeId, x: float, y: float
    ) -> None:
        """Fold one hop-log entry (see :meth:`add_hops`)."""
        self.add_hops(((pid, hop, node, x, y),))

    def add_hops(
        self, entries: Iterable[Tuple[int, int, NodeId, float, float]]
    ) -> None:
        """Fold ``(pid, hop, node, x, y)`` hop-log entries in one loop.

        A packet's entries must come in hop order, starting at hop 0;
        anything else raises :class:`ValueError`.
        """
        geo = self._geo
        hypot = math.hypot
        for pid, hop, _node, x, y in entries:
            state = geo.get(pid)
            if state is None:
                if hop != 0:
                    raise ValueError(
                        f"hop log for packet {pid} starts at hop {hop}, not 0"
                    )
                geo[pid] = [0, x, y, 0.0, x, y]
                continue
            if hop != state[0] + 1:
                raise ValueError(
                    f"hop log for packet {pid} jumps from {state[0]} to {hop}"
                )
            state[3] += hypot(x - state[1], y - state[2])
            state[0] = hop
            state[1] = x
            state[2] = y

    def add_entry(self, entry: tuple) -> None:
        """Fold one replayed stream entry (``("h", ...)`` / ``("t", ...)``)."""
        tag = entry[0]
        if tag == "h":
            self.add_hops((entry[1:],))
        elif tag == "t":
            self.add_terminal(*entry[1:])
        else:
            raise ValueError(f"unknown record entry tag {tag!r}")

    def finish(self, relay_load: Mapping[NodeId, int]) -> Dict[str, object]:
        """The JSON-ready report dict."""
        terminals = self._terminals
        outcomes = {name: 0 for name in TERMINAL_OUTCOMES}
        delays: List[float] = []
        hops: List[int] = []
        stretches: List[float] = []
        for pid in sorted(terminals):
            outcome, time = terminals[pid]
            outcomes[outcome] += 1
            if outcome != "delivered":
                continue
            packet = self._by_pid[pid]
            delays.append(time - packet.created_at)
            state = self._geo.get(pid)
            hop_count = state[0] if state is not None else 0
            hops.append(hop_count)
            if hop_count > 0:
                straight = math.hypot(
                    state[4] - packet.dst_pos[0], state[5] - packet.dst_pos[1]
                )
                if straight > 1e-9:
                    stretches.append(state[3] / straight)

        generated = len(self._packets)
        outcomes["missing"] = generated - len(terminals)
        delivered = outcomes["delivered"]
        stretches.sort()
        top_hotspots = sorted(
            relay_load.items(), key=lambda kv: (-kv[1], kv[0])
        )[:10]
        by_kind: Dict[str, Dict[str, int]] = {}
        for packet in self._packets:
            kind = by_kind.setdefault(
                packet.kind, {"generated": 0, "delivered": 0}
            )
            kind["generated"] += 1
            record = terminals.get(packet.pid)
            if record is not None and record[0] == "delivered":
                kind["delivered"] += 1

        return {
            "generated": generated,
            "outcomes": outcomes,
            "delivery_ratio": (delivered / generated) if generated else 0.0,
            "by_kind": by_kind,
            "delay": _delay_stats(delays),
            "hops": {
                "mean": (sum(hops) / len(hops)) if hops else 0.0,
                "max": max(hops) if hops else 0,
            },
            "stretch": {
                "p50": percentile(stretches, 0.50),
                "p90": percentile(stretches, 0.90),
                "max": stretches[-1] if stretches else 0.0,
            },
            "relay": {
                "relaying_nodes": len(relay_load),
                "transmissions": sum(relay_load.values()),
                "max_load": max(relay_load.values()) if relay_load else 0,
                "top_hotspots": [
                    {"node": node, "load": load} for node, load in top_hotspots
                ],
            },
        }


def fold_traffic_report(
    packets: Sequence[Packet],
    terminals: Mapping[int, Tuple[str, float]],
    hop_entries: Iterable[Tuple[int, int, NodeId, float, float]],
    relay_load: Mapping[NodeId, int],
) -> Dict[str, object]:
    """One router's traffic report from collected plane state."""
    fold = TrafficFold(packets)
    fold.add_hops(hop_entries)
    for pid, (outcome, time) in terminals.items():
        fold.add_terminal(pid, outcome, time)
    return fold.finish(relay_load)

