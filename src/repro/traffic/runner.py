"""Traffic replicate execution: generate → stabilize → forward → report.

One replicate races every configured router over *identically seeded*
runs: the same deployment, the same initial configuration, the same
chaos schedule, the same packet schedule — only the per-hop forwarding
decisions differ.  Each router gets a fresh simulation: data frames
draw from per-sender ``radio.*.data.*`` streams, and running two
routers back to back in one simulation would leave the first router's
stream positions (and in-flight retries) behind for the second.

Replicates fan out over seeds through :class:`~repro.sim.SweepRunner`,
so traffic reports inherit the repo-wide contract: byte-identical
payloads at every worker count and shard count.

Streaming knobs (volume runs): ``spec["stream_dir"]`` routes every
terminal/hop record through a crash-tolerant
:class:`~repro.traffic.stream.JsonlRecordStream` (one file per router)
instead of memory, and the report is folded from the replayed file;
``spec["stream_batch"]`` sizes the JSONL write batches (default 256).
An interrupted replicate re-run against the same directory recovers
the stream's intact prefix, appends only the missing suffix, and folds
a byte-identical report.
"""

from __future__ import annotations

import os
import time as _time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net import NodeId
from ..perturb.chaos import (
    ChaosCampaign,
    ChaosConfig,
    build_campaign_simulation,
    parse_campaign,
)
from ..sim import RngStreams, campaign_identity, run_campaign
from ..sim.parallel import ReplicateOutcome
from .generators import TrafficConfig, generate_workload
from .packets import Packet
from .report import TrafficFold, fold_traffic_report, percentile
from .stream import JsonlRecordStream

__all__ = [
    "PacketInjector",
    "attach_plane",
    "collect_traffic",
    "run_traffic_campaigns",
    "run_traffic_replicate",
    "schedule_packets",
    "summarize_traffic",
]


def attach_plane(
    simulation,
    plane_config: Dict[str, Any],
    stream: Optional[JsonlRecordStream] = None,
):
    """Attach a forwarding plane to a running simulation.

    Returns the in-process :class:`ForwardingPlane`, or ``None`` for the
    sharded facade (each shard worker then owns its stripe's plane;
    records come back through ``traffic_records``).
    """
    return simulation.attach_traffic(plane_config, stream=stream)


class PacketInjector:
    """Arms packet injections with one shared callback.

    Every injection schedules the *same* bound method and pops its unit
    from a FIFO, so the event queue holds no per-packet closure.  Each
    unit enters as one driver operation (``send_packet``, or
    ``send_packet_batch`` for consecutive ``burst`` packets sharing a
    source and creation time).
    """

    def __init__(self, simulation):
        self._simulation = simulation
        self._queue: deque = deque()

    def arm(self, packets: Sequence[Packet]) -> None:
        clock = self._simulation.runtime.sim
        fire = self._fire
        for unit in _injection_units(packets):
            self._queue.append(unit)
            clock.schedule_at(unit[0].created_at, fire)

    def _fire(self) -> None:
        unit = self._queue.popleft()
        if len(unit) == 1:
            self._simulation.send_packet(unit[0])
        else:
            self._simulation.send_packet_batch(unit)


def _injection_units(packets: Sequence[Packet]) -> List[Tuple[Packet, ...]]:
    """Group maximal runs of same-instant same-source burst packets."""
    units: List[Tuple[Packet, ...]] = []
    i, n = 0, len(packets)
    while i < n:
        head = packets[i]
        if head.kind != "burst":
            units.append((head,))
            i += 1
            continue
        j = i + 1
        while (
            j < n
            and packets[j].kind == "burst"
            and packets[j].created_at == head.created_at
            and packets[j].src == head.src
        ):
            j += 1
        units.append(tuple(packets[i:j]))
        i = j
    return units


def schedule_packets(simulation, plane, packets: Sequence[Packet]):
    """Arm every packet's injection at its creation time.

    The packets enter through the simulation's own driver operations,
    which reach ``plane`` (the value :func:`attach_plane` returned) in
    process or the shard planes in a sharded run.
    """
    injector = PacketInjector(simulation)
    injector.arm(packets)
    return injector


def collect_traffic(
    simulation, plane
) -> Tuple[Dict[int, tuple], tuple, Dict[NodeId, int]]:
    """``(terminals, hop entries, relay loads)``, merged across shards."""
    return (simulation if plane is None else plane).traffic_records()


def run_traffic_replicate(
    spec: Dict[str, Any],
    instrumentation: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Picklable sweep worker: one seeded traffic replicate.

    ``spec`` is ``{"data": <campaign dict>, "seed": <int>}`` — the same
    scenario-shaped JSON the chaos runner takes (``config``,
    ``deployment``, optional ``channel`` / ``chaos`` / ``shards``) plus
    a required ``traffic`` block.  Optional ``stream_dir`` /
    ``stream_batch`` spill records to JSONL (see module docstring).
    Returns per-router :func:`fold_traffic_report` dicts under
    ``"routers"``; ``instrumentation`` (never part of the report, so
    reports stay byte-identical across execution configs) collects
    wall-clock and barrier counters per router when a dict is passed.
    """
    data = spec["data"]
    seed = int(spec["seed"])
    scenario, chaos = parse_campaign(dict(data, seed=seed))
    traffic = scenario.traffic
    if traffic is None:
        raise ValueError("traffic replicate needs a 'traffic' block")
    has_chaos = "chaos" in data
    stream_dir = spec.get("stream_dir")
    stream_batch = int(spec.get("stream_batch", 256))

    result: Dict[str, Any] = {"seed": seed, "routers": {}}
    for router in traffic.routers:
        stream_path = (
            os.path.join(stream_dir, f"{router}.records.jsonl")
            if stream_dir is not None
            else None
        )
        inst: Optional[Dict[str, Any]] = (
            {} if instrumentation is not None else None
        )
        result["routers"][router] = _run_router(
            scenario, seed, traffic, chaos, has_chaos, router,
            stream_path=stream_path, stream_batch=stream_batch,
            instrumentation=inst,
        )
        if instrumentation is not None:
            instrumentation[router] = inst
    # ``generated`` comes from any router that actually ran: the
    # workload is identical across routers, and taking the first
    # unconditionally reported 0 whenever that router failed to
    # configure even though others succeeded.
    succeeded = [
        r for r in result["routers"].values() if "error" not in r
    ]
    result["generated"] = succeeded[0]["generated"] if succeeded else 0
    return result


def _run_router(
    scenario,
    seed: int,
    traffic: TrafficConfig,
    chaos: ChaosConfig,
    has_chaos: bool,
    router: str,
    stream_path: Optional[str] = None,
    stream_batch: int = 256,
    instrumentation: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..net import deployment_from_spec

    streams = RngStreams(seed)
    deployment = deployment_from_spec(scenario.deployment_spec, streams)
    simulation = build_campaign_simulation(scenario, deployment)
    stream = None
    try:
        started = _time.perf_counter()
        configured = simulation.stabilize(
            window=chaos.settle_window,
            max_time=chaos.configure_budget,
            field=deployment.field,
            check_invariants=False,
        )
        stabilized = _time.perf_counter()
        if not configured.stable:
            return {"error": "initial configuration did not stabilise"}
        start = simulation.now
        packets = generate_workload(traffic, simulation.network, seed, start)
        chaos_events = 0
        if has_chaos:
            campaign = ChaosCampaign(chaos, streams)
            chaos_events = campaign.inject(simulation, deployment.field, start)
        if stream_path is not None:
            stream = JsonlRecordStream(stream_path, batch=stream_batch)
        plane = attach_plane(
            simulation, traffic.plane_config(router), stream=stream
        )
        injector = schedule_packets(simulation, plane, packets)
        simulation.run_for(traffic.duration + traffic.drain)
        forwarded = _time.perf_counter()
        assert not injector._queue, "armed packets left uninjected"
        if stream is not None:
            fold = TrafficFold(packets)
            for entry in stream.replay():
                fold.add_entry(entry)
            report = fold.finish(dict(plane.relay_load))
        else:
            terminals, hops, relay_load = collect_traffic(simulation, plane)
            report = fold_traffic_report(packets, terminals, hops, relay_load)
        report["chaos_events"] = chaos_events
        if instrumentation is not None:
            instrumentation["stabilize_wall_s"] = stabilized - started
            instrumentation["forward_wall_s"] = forwarded - stabilized
            instrumentation["generated"] = len(packets)
            barriers = getattr(simulation, "barrier_count", None)
            if barriers is not None:
                instrumentation["barriers"] = barriers
                instrumentation["op_dispatches"] = simulation.op_dispatches
        return report
    finally:
        if stream is not None:
            stream.close()
        closer = getattr(simulation, "close", None)
        if closer is not None:
            closer()


def run_traffic_campaigns(
    data: Dict[str, Any], replicates: int, **kwargs: Any
) -> List[ReplicateOutcome]:
    """Fan a traffic description across ``replicates`` derived seeds.

    :func:`~repro.sim.run_campaign` over :func:`run_traffic_replicate`,
    stored under the description's
    :func:`~repro.sim.campaign_identity`; keyword arguments pass
    through as for :func:`repro.perturb.run_chaos_campaigns`.
    """
    return run_campaign(
        run_traffic_replicate,
        "traffic",
        data,
        replicates,
        campaign_identity(data),
        **kwargs,
    )


def summarize_traffic(
    outcomes: Sequence[ReplicateOutcome],
) -> Dict[str, Any]:
    """Aggregate traffic outcomes into the CLI/BENCH summary shape.

    Per-router error messages surface distinctly under ``"errors"``
    (message -> count, emitted only when nonempty) so a router that
    failed to configure is never silently folded into the averages.
    """
    results = [o.result for o in outcomes if o.ok]
    crashed = sum(1 for o in outcomes if not o.ok)
    routers = sorted({r for res in results for r in res.get("routers", {})})
    summary: Dict[str, Any] = {
        "replicates": len(outcomes),
        "crashed": crashed,
        "routers": {},
    }
    for router in routers:
        reports = [
            res["routers"][router]
            for res in results
            if router in res.get("routers", {})
            and "error" not in res["routers"][router]
        ]
        errors: Dict[str, int] = {}
        for res in results:
            report = res.get("routers", {}).get(router)
            if report is not None and "error" in report:
                message = str(report["error"])
                errors[message] = errors.get(message, 0) + 1
        generated = sum(r["generated"] for r in reports)
        delivered = sum(r["outcomes"]["delivered"] for r in reports)
        p50s = sorted(r["delay"]["p50"] for r in reports if r["generated"])
        p99s = sorted(r["delay"]["p99"] for r in reports if r["generated"])
        entry: Dict[str, Any] = {
            "reports": len(reports),
            "unconfigured": sum(errors.values()),
            "generated": generated,
            "delivered": delivered,
            "delivery_ratio": (delivered / generated) if generated else 0.0,
            "delay_p50_median": percentile(p50s, 0.50),
            "delay_p99_median": percentile(p99s, 0.50),
            "delay_max": max((r["delay"]["max"] for r in reports), default=0.0),
            "hotspot_max_load": max(
                (r["relay"]["max_load"] for r in reports), default=0
            ),
        }
        if errors:
            entry["errors"] = dict(sorted(errors.items()))
        summary["routers"][router] = entry
    return summary
