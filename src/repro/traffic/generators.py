"""Seeded workload generation.

Three generator kinds, all drawing from named :class:`RngStreams`
streams derived from the run's master seed so the packet schedule is a
pure function of ``(deployment, seed, config)`` — independent of shard
count, worker count, and everything the simulation does at runtime:

* **flows** — Poisson point-to-point datagrams between uniformly drawn
  node pairs (stream ``traffic.p2p``);
* **convergecast** — a Poisson storm of sensor readings from random
  small nodes toward the big node (stream ``traffic.converge``);
* **cbr** — constant-bit-rate background load: ``sources`` fixed small
  nodes each emitting one reading toward the big node every
  ``interval``, with staggered phases (stream ``traffic.cbr`` picks
  the sources);
* **burst** — volume traffic: a Poisson process of same-instant packet
  bursts, ``size`` datagrams from one random source to random
  destinations (stream ``traffic.burst``); the runner injects each
  burst as one batched event, which is what scales replicates to 10⁵
  packets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..net import NodeId
from ..perturb.workloads import poisson_times
from ..sim.rng import RngStreams
from .packets import Packet

__all__ = ["TrafficConfig", "generate_workload"]

_ROUTER_KINDS = ("cell", "hybrid")


@dataclass(frozen=True)
class TrafficConfig:
    """Parsed ``"traffic"`` block of a scenario/chaos JSON spec."""

    #: Length of the generation window (virtual time).
    duration: float = 400.0
    #: Hop budget per packet.
    ttl: int = 32
    #: Route-retry budget per packet (re-route after heal).
    max_retries: int = 3
    #: Backoff before a held packet re-consults its router.
    retry_delay: float = 5.0
    #: Extra run time after generation ends for in-flight packets.
    drain: float = 200.0
    #: Routers to race (each gets its own identically-seeded run).
    routers: Tuple[str, ...] = ("cell", "hybrid")
    #: Poisson rate (packets / unit time) of point-to-point flows.
    p2p_rate: float = 0.0
    #: Poisson rate of convergecast readings toward the big node.
    converge_rate: float = 0.0
    #: Number of constant-bit-rate background sources (0 = none).
    cbr_sources: int = 0
    #: Emission interval of each CBR source.
    cbr_interval: float = 25.0
    #: Poisson rate of same-instant packet *bursts* (volume traffic).
    burst_rate: float = 0.0
    #: Packets per burst, all from one source at one instant — the
    #: plane injects them as a single batched event.
    burst_size: int = 8

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("traffic duration must be positive")
        if self.ttl <= 0:
            raise ValueError("traffic ttl must be positive")
        if self.max_retries < 0:
            raise ValueError("traffic max_retries must be >= 0")
        if self.retry_delay <= 0:
            raise ValueError("traffic retry_delay must be positive")
        if self.drain < 0:
            raise ValueError("traffic drain must be >= 0")
        if not self.routers:
            raise ValueError("traffic routers must not be empty")
        for router in self.routers:
            if router not in _ROUTER_KINDS:
                raise ValueError(
                    f"unknown traffic router {router!r}; "
                    f"expected one of {_ROUTER_KINDS}"
                )
        if self.p2p_rate < 0 or self.converge_rate < 0:
            raise ValueError("traffic rates must be >= 0")
        if self.cbr_sources < 0:
            raise ValueError("traffic cbr sources must be >= 0")
        if self.cbr_interval <= 0:
            raise ValueError("traffic cbr interval must be positive")
        if self.burst_rate < 0:
            raise ValueError("traffic burst rate must be >= 0")
        if self.burst_size < 1:
            raise ValueError("traffic burst size must be >= 1")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficConfig":
        known = {
            "duration",
            "ttl",
            "max_retries",
            "retry_delay",
            "drain",
            "routers",
            "flows",
            "convergecast",
            "cbr",
            "burst",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown traffic keys: {sorted(unknown)}; expected {sorted(known)}"
            )
        kwargs: Dict[str, Any] = {}
        for key in ("duration", "retry_delay", "drain"):
            if key in data:
                kwargs[key] = float(data[key])
        for key in ("ttl", "max_retries"):
            if key in data:
                kwargs[key] = int(data[key])
        if "routers" in data:
            kwargs["routers"] = tuple(str(r) for r in data["routers"])
        flows = _sub_block(data, "flows", {"rate"})
        if flows is not None:
            kwargs["p2p_rate"] = float(flows.get("rate", 0.0))
        converge = _sub_block(data, "convergecast", {"rate"})
        if converge is not None:
            kwargs["converge_rate"] = float(converge.get("rate", 0.0))
        cbr = _sub_block(data, "cbr", {"sources", "interval"})
        if cbr is not None:
            kwargs["cbr_sources"] = int(cbr.get("sources", 0))
            if "interval" in cbr:
                kwargs["cbr_interval"] = float(cbr["interval"])
        burst = _sub_block(data, "burst", {"rate", "size"})
        if burst is not None:
            kwargs["burst_rate"] = float(burst.get("rate", 0.0))
            if "size" in burst:
                kwargs["burst_size"] = int(burst["size"])
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form; only non-default fields are emitted."""
        default = TrafficConfig()
        out: Dict[str, Any] = {}
        for key in ("duration", "ttl", "max_retries", "retry_delay", "drain"):
            value = getattr(self, key)
            if value != getattr(default, key):
                out[key] = value
        if self.routers != default.routers:
            out["routers"] = list(self.routers)
        if self.p2p_rate:
            out["flows"] = {"rate": self.p2p_rate}
        if self.converge_rate:
            out["convergecast"] = {"rate": self.converge_rate}
        if self.cbr_sources:
            cbr: Dict[str, Any] = {"sources": self.cbr_sources}
            if self.cbr_interval != default.cbr_interval:
                cbr["interval"] = self.cbr_interval
            out["cbr"] = cbr
        if self.burst_rate:
            burst: Dict[str, Any] = {"rate": self.burst_rate}
            if self.burst_size != default.burst_size:
                burst["size"] = self.burst_size
            out["burst"] = burst
        return out

    def with_routers(self, routers: Sequence[str]) -> "TrafficConfig":
        return replace(self, routers=tuple(routers))

    def plane_config(self, router: str) -> Dict[str, Any]:
        """The plain-dict config shipped to each forwarding plane."""
        return {
            "router": router,
            "ttl": self.ttl,
            "max_retries": self.max_retries,
            "retry_delay": self.retry_delay,
        }


def _sub_block(
    data: Mapping[str, Any], key: str, known: set
) -> Optional[Mapping[str, Any]]:
    if key not in data:
        return None
    block = data[key]
    unknown = set(block) - known
    if unknown:
        raise ValueError(
            f"unknown traffic.{key} keys: {sorted(unknown)}; "
            f"expected {sorted(known)}"
        )
    return block


def generate_workload(
    config: TrafficConfig,
    network,
    seed: int,
    start: float,
) -> List[Packet]:
    """The full packet schedule for one run, sorted by creation time.

    Depends only on the initial deployment (node ids + positions), the
    master ``seed``, and ``config`` — never on simulation state — so
    the same schedule is generated for every router, worker count, and
    shard count.
    """
    ids = network.node_ids()
    big = network.big_id
    smalls = [i for i in ids if i != big]
    if not smalls:
        raise ValueError("traffic generation needs at least one small node")
    end = start + config.duration
    streams = RngStreams(seed)
    entries: List[Tuple[float, int, int, str, NodeId, NodeId]] = []

    rng = streams.stream("traffic.p2p")
    for order, t in enumerate(poisson_times(rng, config.p2p_rate, start, end)):
        src = smalls[rng.randrange(len(smalls))]
        dst = ids[rng.randrange(len(ids))]
        while dst == src:
            dst = ids[rng.randrange(len(ids))]
        entries.append((t, 0, order, "p2p", src, dst))

    if config.burst_rate:
        # Volume traffic: each burst is one source emitting
        # ``burst_size`` datagrams at one instant.  Bursts sort as a
        # contiguous run (same time/class, consecutive orders), which
        # is what lets the runner inject each as a single batched
        # event.
        rng = streams.stream("traffic.burst")
        order = 0
        for t in poisson_times(rng, config.burst_rate, start, end):
            src = smalls[rng.randrange(len(smalls))]
            for _ in range(config.burst_size):
                dst = ids[rng.randrange(len(ids))]
                while dst == src:
                    dst = ids[rng.randrange(len(ids))]
                entries.append((t, 3, order, "burst", src, dst))
                order += 1

    if big is not None:
        rng = streams.stream("traffic.converge")
        rate = config.converge_rate
        for order, t in enumerate(poisson_times(rng, rate, start, end)):
            src = smalls[rng.randrange(len(smalls))]
            entries.append((t, 1, order, "converge", src, big))

        if config.cbr_sources:
            rng = streams.stream("traffic.cbr")
            count = min(config.cbr_sources, len(smalls))
            sources = sorted(rng.sample(smalls, count))
            order = 0
            for index, src in enumerate(sources):
                phase = config.cbr_interval * index / count
                t = start + phase
                while t < end:
                    entries.append((t, 2, order, "cbr", src, big))
                    order += 1
                    t += config.cbr_interval

    entries.sort(key=lambda e: e[:3])
    packets: List[Packet] = []
    add = packets.append
    node = network.node
    for pid, (t, _, _, kind, src, dst) in enumerate(entries):
        pos = node(dst).position
        add(Packet(pid, kind, t, src, dst, (pos.x, pos.y)))
    return packets
