"""Per-layer metrics of a traced replicate, and the checks on them.

:func:`layer_table` folds the span recorder of :mod:`probes` into the
``per_layer`` metrics of ``BENCHMARK.json``, which holds their units
and directions; ``run.py`` refuses a table whose names differ from it.  How a saving in a layer
reaches the end-to-end metrics:

* every layer runs on the one thread that blocks the result, so a
  faster layer saves at most its self-time share of the workload;
* on ``configure_shard2`` the two shards run one after the other
  inside each epoch, in the replicate's own process, so their spans
  are recorded as on the other workloads; ``shard.frames``,
  ``shard.frame_bytes`` and ``shard.wait_s`` count the pipe IPC of
  forked shard workers, which no workload runs (see ``workloads``), and
  stay 0.

Which end-to-end metric each layer should move, and where it is
bypassed (:func:`bypass_errors` checks every prediction on each traced
run: "bypassed" means no work at all, "small" under 5 % of traced
wall):

======================  ===========================================  ======================
layer                   should move                                  bypassed on
======================  ===========================================  ======================
``engine.*``            configure_s (configure), heal_s (chaos)      —
``radio.*``             configure_s (configure), packets_per_s       —
``faults.*``            heal_s (chaos), packets_per_s (traffic)      configure, configure_shard2
``topology.*``          configure_s (reads), heal_s (writes)         —
``protocol.*``          configure_s (configure), heal_s (chaos)      —
``invariants.*``        heal_s                                       small on traffic
``chaos.*``             heal_s (chaos)                               small on configure*, traffic
``traffic.*``           packets_per_s (traffic)                      small on configure*, chaos
``plane.*``/``router.*``  packets_per_s (traffic)                    small on configure*, chaos
``report.*``            packets_per_s (traffic)                      small on configure*, chaos
``shard.*``             configure_s (configure_shard2)               configure, chaos, traffic
``setup.*``             setup_s (all)                                —
``campaign.*``          all (stabilize loop, snapshots, records)     —
``tracing.emits``       configure_s, heal_s                          —
======================  ===========================================  ======================

The traced radio rows carry most of the tracing overhead (every
delivery schedule is wrapped), so read them as upper bounds.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = [
    "MESSAGE_KINDS",
    "SELF_TIME_METRICS",
    "bypass_errors",
    "layer_table",
]

#: The protocol message classes of ``repro.core.messages``.
MESSAGE_KINDS = (
    "Org",
    "OrgReply",
    "HeadOrgReply",
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
)

#: Self-time metrics that partition a traced replicate's wall time.
SELF_TIME_METRICS = (
    "setup.import_s",
    "setup.deploy_s",
    "setup.build_s",
    "setup.boot_s",
    "engine.self_s",
    "radio.send_self_s",
    "radio.deliver_self_s",
    "faults.self_s",
    "topology.query_self_s",
    "topology.mutation_self_s",
    "protocol.handler_self_s",
    "protocol.timer_self_s",
    "invariants.self_s",
    "chaos.self_s",
    "traffic.generate_s",
    "plane.self_s",
    "router.decide_self_s",
    "report.fold_s",
    "shard.wait_s",
    "shard.coord_self_s",
    "campaign.self_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(trace, captured: Dict[str, Any], wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced replicate (all but overhead)."""
    S = trace.self_of
    N = trace.calls_of
    c = trace.counts
    queries = trace.names_with("topology.query.")
    mutations = trace.names_with("topology.mutate.")
    kinds = [
        n for n in trace.names_with("protocol.") if n != "protocol.timer"
    ]
    heap = c.get("engine.heap", 0)
    wheel = c.get("engine.wheel", 0)
    scheduled = heap + wheel
    events = captured.get("events", 0)
    engine_self = S("engine.run")
    broadcasts = N("radio.broadcast")
    receivers = c.get("radio.receivers", 0)
    broadcast_drops = c.get("faults.drop_broadcast.drops", 0)
    data_frames = N("radio.send_data") + c.get("radio.batch_frames", 0)
    decides = N("router.decide")
    barriers = captured.get("barriers", 0)
    table: Dict[str, float] = {
        "engine.events": events,
        "engine.scheduled": scheduled,
        "engine.cancelled_share": _ratio(c.get("engine.cancelled", 0), scheduled),
        "engine.wheel_share": _ratio(wheel, scheduled),
        "engine.self_s": engine_self,
        "engine.ns_per_event": _ratio(engine_self * 1e9, events),
        "radio.broadcasts": broadcasts,
        "radio.unicasts": N("radio.unicast"),
        "radio.data_frames": data_frames,
        "radio.deliveries": N("radio.deliver"),
        "radio.fanout": _ratio(receivers, broadcasts),
        "radio.delivered_share": _ratio(receivers, receivers + broadcast_drops),
        "radio.send_self_s": S(
            "radio.broadcast",
            "radio.unicast",
            "radio.send_data",
            "radio.send_data_batch",
        ),
        "radio.deliver_self_s": S("radio.deliver"),
        "faults.draws": N("faults.drop_broadcast", "faults.drop_data"),
        "faults.drops": broadcast_drops + c.get("faults.drop_data.drops", 0),
        "faults.self_s": S(*trace.names_with("faults.")),
        "topology.queries": N(*queries),
        "topology.query_self_s": S(*queries),
        "topology.mutations": N(*mutations),
        "topology.mutation_self_s": S(*mutations),
        "protocol.messages": N(*kinds),
        "protocol.handler_self_s": S(*kinds),
        "protocol.timer_fires": N("protocol.timer"),
        "protocol.timer_self_s": S("protocol.timer"),
    }
    for kind in MESSAGE_KINDS:
        table[f"protocol.{kind}.calls"] = N(f"protocol.{kind}")
        table[f"protocol.{kind}.self_s"] = S(f"protocol.{kind}")
    table.update(
        {
            "invariants.checks": N("invariants.check"),
            "invariants.self_s": S("invariants.check"),
            "chaos.perturbations": N("chaos.apply"),
            "chaos.self_s": S("chaos.apply", "chaos.inject"),
            "traffic.generated": c.get("traffic.generated", 0),
            "traffic.generate_s": S("traffic.generate"),
            "plane.injected": c.get("plane.injected", 0),
            "plane.frames": N("plane.on_frame"),
            "plane.retries": N("plane.retry"),
            "plane.hop_success_share": _ratio(N("plane.on_frame"), data_frames),
            "plane.self_s": S(
                "plane.inject",
                "plane.on_frame",
                "plane.retry",
                "plane.injector",
                "plane.setup",
            ),
            "router.decides": decides,
            "router.wait_share": _ratio(c.get("router.waits", 0), decides),
            "router.decide_self_s": S("router.decide"),
            "report.hops_folded": c.get("report.hops", 0),
            "report.fold_s": S("report.fold"),
            "shard.barriers": barriers,
            "shard.op_dispatches": captured.get("op_dispatches", 0),
            "shard.events_per_barrier": _ratio(events, barriers),
            "shard.frames": c.get("shard.frames", 0),
            "shard.frame_bytes": c.get("shard.bytes", 0),
            "shard.wait_s": S("shard.wait"),
            "shard.coord_self_s": S("shard.coord", "shard.send", "shard.recv"),
            "setup.import_s": trace.import_s,
            "setup.deploy_s": S("setup.deploy"),
            "setup.build_s": S("setup.build"),
            "setup.boot_s": S("setup.boot"),
            "tracing.emits": captured.get("emits", 0),
            "campaign.self_s": S(
                "campaign.replicate",
                "campaign.stabilize",
                "campaign.snapshot",
                "campaign.collect",
            ),
            "trace.wall_s": wall,
        }
    )
    table["trace.coverage"] = _ratio(
        sum(table[name] for name in SELF_TIME_METRICS), wall
    )
    return table


#: Layers that must do no work at all on a workload.
_BYPASSED = {
    "configure": ("faults.", "shard."),
    "chaos": ("shard.",),
    "traffic": ("shard.",),
    "configure_shard2": ("faults.",),
}
#: Layers that must stay under :data:`SMALL_SHARE` of traced wall.
_SMALL = {
    "configure": (
        "chaos.self_s",
        "traffic.generate_s",
        "plane.self_s",
        "router.decide_self_s",
        "report.fold_s",
    ),
    "chaos": (
        "traffic.generate_s",
        "plane.self_s",
        "router.decide_self_s",
        "report.fold_s",
    ),
    "traffic": ("chaos.self_s", "invariants.self_s"),
    "configure_shard2": (
        "chaos.self_s",
        "traffic.generate_s",
        "plane.self_s",
        "report.fold_s",
    ),
}
SMALL_SHARE = 0.05


def bypass_errors(workload: str, table: Dict[str, float]) -> List[str]:
    """Bypass predictions that failed on a traced replicate."""
    errors = [
        f"{name} = {value} on {workload}, predicted 0"
        for prefix in _BYPASSED[workload]
        for name, value in table.items()
        if name.startswith(prefix) and value != 0
    ]
    small = sum(table[name] for name in _SMALL[workload])
    if small > SMALL_SHARE * table["trace.wall_s"]:
        errors.append(
            f"{', '.join(_SMALL[workload])} take {small:.3f} s on "
            f"{workload}, over {SMALL_SHARE:.0%} of traced wall"
        )
    return errors
