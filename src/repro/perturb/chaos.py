"""Randomized chaos campaigns with machine-checked healing verdicts.

The paper's healing theorems (8–11) promise that the cellular structure
recovers *locally* from joins, deaths, movements, and state corruption.
Hand-written perturbation schedules exercise each theorem in isolation;
a **chaos campaign** stresses all of them at once, the way the
self-stabilization literature evaluates healing algorithms: a seeded
Poisson storm of kills, joins, moves, and corruptions — layered with
adversarial channel faults (bursty loss, regional jamming) — followed
by a quiet period in which the structure either restores every
invariant within a healing budget or is convicted with diagnostics.

The outcome of one campaign replicate is a
:class:`StabilizationVerdict`: a machine-checked *healed-within-budget*
boolean plus healing time, disturbed-cell count, and (on timeout) the
invariants still violated — no human eyeballing of traces required.
Campaigns fan out over seeds through the existing
:class:`~repro.sim.SweepRunner`, so verdict payloads are byte-identical
across worker counts.

Layering: the campaign generates plain
:class:`~repro.perturb.events.PerturbationEvent` objects (including
:class:`~repro.perturb.events.RegionJam` channel faults) and schedules
them through the ordinary :class:`PerturbationInjector` — chaos is a
workload, not a new execution mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..geometry import Disk, Vec2
from ..sim import RngStreams, campaign_identity, percentile, run_campaign
from ..sim.parallel import ReplicateOutcome
from .events import PerturbationEvent, RegionJam
from .injector import PerturbationInjector
from .workloads import churn_workload, mobility_workload, poisson_times

__all__ = [
    "ChaosCampaign",
    "ChaosConfig",
    "StabilizationVerdict",
    "build_campaign_simulation",
    "parse_campaign",
    "run_chaos_campaigns",
    "run_chaos_replicate",
    "summarize_verdicts",
]


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one chaos campaign (plain data, JSON-compatible).

    Rates are Poisson intensities in events per tick across the whole
    network, active during the chaos window of length ``duration``.
    After the window closes the structure gets ``heal_budget`` ticks to
    restore every invariant; the verdict is decided there.
    """

    duration: float = 1_500.0
    kill_rate: float = 0.0
    join_rate: float = 0.0
    move_rate: float = 0.0
    corruption_rate: float = 0.0
    jam_rate: float = 0.0
    jam_radius: float = 100.0
    jam_duration: float = 200.0
    mean_move_step: float = 30.0
    settle_window: float = 120.0
    configure_budget: float = 50_000.0
    heal_budget: float = 30_000.0

    def __post_init__(self) -> None:
        # The schedule spans ``duration`` at these rates, and
        # ``stabilize`` runs in ``settle_window`` steps up to the
        # budgets: a non-finite value would never end.  NaN fails
        # every comparison (``NaN < 0`` is false), so each bound is
        # tested as a range that NaN cannot satisfy.
        for name in (
            "duration",
            "kill_rate",
            "join_rate",
            "move_rate",
            "corruption_rate",
            "jam_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        if self.jam_rate > 0.0 and not (
            0.0 < self.jam_radius < math.inf
            and 0.0 < self.jam_duration < math.inf
        ):
            raise ValueError(
                "jam_rate > 0 needs finite positive jam_radius and "
                "jam_duration"
            )
        if self.move_rate > 0.0 and not 0.0 < self.mean_move_step < math.inf:
            raise ValueError(
                "move_rate > 0 needs a finite positive mean_move_step, "
                f"got {self.mean_move_step}"
            )
        for name in ("settle_window", "configure_budget", "heal_budget"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and > 0, got {value}"
                )

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ChaosConfig":
        """Parse a ``chaos`` block, rejecting unknown keys loudly."""
        if not isinstance(data, dict):
            raise ValueError(f"a chaos block is an object, got {data!r}")
        known = {f for f in ChaosConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown chaos keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return ChaosConfig(**{k: float(v) for k, v in data.items()})

    def to_dict(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in ChaosConfig.__dataclass_fields__
        }


class ChaosCampaign:
    """Generates and injects one seeded chaos schedule.

    Built on the workload generators: churn (kills / joins /
    corruptions) and mobility come from
    :mod:`repro.perturb.workloads`; jam windows are a Poisson process
    of :class:`RegionJam` events with centers uniform in the field.
    All draws come from named streams of the campaign's
    :class:`RngStreams`, so a seed fully determines the schedule.
    """

    def __init__(self, config: ChaosConfig, rng_streams: RngStreams):
        self.config = config
        self.streams = rng_streams

    def events(
        self, network, field: Disk, start: float
    ) -> List[PerturbationEvent]:
        """The campaign's perturbation schedule on ``[start, start+duration)``."""
        cfg = self.config
        end = start + cfg.duration
        alive = [n for n in network.alive_nodes()]
        node_ids = [n.node_id for n in alive]
        events: List[PerturbationEvent] = list(
            churn_workload(
                node_ids,
                field.radius,
                self.streams,
                start,
                end,
                join_rate=cfg.join_rate,
                leave_rate=cfg.kill_rate,
                corruption_rate=cfg.corruption_rate,
            )
        )
        if cfg.move_rate > 0.0:
            events.extend(
                mobility_workload(
                    node_ids,
                    [n.position for n in alive],
                    self.streams,
                    start,
                    end,
                    move_rate=cfg.move_rate,
                    mean_step=cfg.mean_move_step,
                    field_radius=field.radius,
                )
            )
        if cfg.jam_rate > 0.0:
            rng = self.streams.stream("perturb.jam")
            for t in poisson_times(rng, cfg.jam_rate, start, end):
                radius = field.radius * math.sqrt(rng.random())
                angle = rng.random() * 2.0 * math.pi
                events.append(
                    RegionJam(
                        time=t,
                        center=field.center + Vec2.from_polar(radius, angle),
                        radius=cfg.jam_radius,
                        duration=cfg.jam_duration,
                    )
                )
        return sorted(events, key=lambda e: e.time)

    def inject(self, simulation, field: Disk, start: Optional[float] = None) -> int:
        """Arm the schedule on a running simulation; returns the count."""
        begin = simulation.now if start is None else start
        injector = PerturbationInjector(simulation)
        return injector.schedule(self.events(simulation.network, field, begin))


@dataclass(frozen=True)
class StabilizationVerdict:
    """Machine-checked outcome of one chaos-campaign replicate."""

    #: The replicate's derived seed.
    seed: int
    #: Whether every invariant was restored within the healing budget.
    healed: bool
    #: Whether the healing (or initial configuration) budget expired.
    timed_out: bool
    #: Ticks from the end of the chaos window to the last structure
    #: change (0.0 when the structure was already quiet); ``None`` when
    #: stability was never reached.
    healing_time: Optional[float]
    #: Cells whose tree edge changed between the pre-chaos and final
    #: snapshots (the disturbance footprint).
    cells_disturbed: int
    #: Perturbation events injected (churn + moves + jams).
    events_injected: int
    #: Invariants still violated when the verdict was decided (empty
    #: when healed).
    violations: Tuple[str, ...]
    #: Category of the last structure-changing trace, for forensics.
    last_change_category: Optional[str]
    #: When the initial (pre-chaos) configuration stabilised; ``None``
    #: if it never did (the verdict is then a configure timeout).
    configured_at: Optional[float]
    #: Broadcast deliveries dropped by jamming / by stochastic loss.
    jam_drops: int = 0
    loss_drops: int = 0
    #: Replacement roots elected during the replicate (ROOT_SEEK fired
    #: after a root outage; 0 = the original root never went stale).
    root_regenerations: int = 0
    #: In-flight data-plane outcomes, when the campaign dict carried a
    #: ``traffic`` block (``None`` otherwise, preserving old payloads).
    traffic: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible payload (deterministic; no wall timing)."""
        payload = {
            "seed": self.seed,
            "healed": self.healed,
            "timed_out": self.timed_out,
            "healing_time": self.healing_time,
            "cells_disturbed": self.cells_disturbed,
            "events_injected": self.events_injected,
            "violations": list(self.violations),
            "last_change_category": self.last_change_category,
            "configured_at": self.configured_at,
            "jam_drops": self.jam_drops,
            "loss_drops": self.loss_drops,
            "root_regenerations": self.root_regenerations,
        }
        if self.traffic is not None:
            payload["traffic"] = self.traffic
        return payload


def parse_campaign(data: Dict[str, Any]) -> Tuple[Any, ChaosConfig]:
    """Parse a scenario-shaped campaign dict: its
    :class:`~repro.scenario.Scenario` and its ``chaos`` block.

    A sharded campaign may not move nodes: a move across a stripe
    boundary would be refused mid-run, so ``move_rate > 0`` with
    ``shards`` is refused here, before any replicate runs.
    """
    # Function-level import: ``repro.scenario`` imports this package.
    from ..scenario import Scenario

    scenario = Scenario.from_dict(
        {key: value for key, value in data.items() if key != "chaos"}
    )
    chaos = ChaosConfig.from_dict(data.get("chaos", {}))
    if scenario.shards is not None and chaos.move_rate > 0.0:
        raise ValueError(
            "move_rate > 0 is not supported sharded "
            "(cross-region moves would be rejected mid-campaign)"
        )
    return scenario, chaos


def build_campaign_simulation(scenario, deployment):
    """The simulation of one campaign replicate: the scenario's own
    (:meth:`~repro.scenario.Scenario.build_simulation`), keeping no
    trace records."""
    return scenario.build_simulation(deployment, keep_trace_records=False)


def run_chaos_replicate(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Picklable sweep worker: one seeded chaos-campaign replicate.

    ``spec`` is ``{"data": <campaign dict>, "seed": <int>}`` where the
    campaign dict is scenario-shaped JSON: ``config`` (GS3Config
    kwargs), ``deployment``, optional ``channel`` (fault-model block),
    optional ``chaos`` (rates and budgets), optional ``mobile``, and
    optional ``traffic`` (a data-plane workload riding the chaos
    window; the verdict then gains a ``"traffic"`` section).
    Returns the :class:`StabilizationVerdict` as a plain dict.
    """
    from ..net import deployment_from_spec

    data = spec["data"]
    seed = int(spec["seed"])
    scenario, chaos = parse_campaign(dict(data, seed=seed))
    streams = RngStreams(seed)
    deployment = deployment_from_spec(scenario.deployment_spec, streams)
    simulation = build_campaign_simulation(scenario, deployment)
    try:
        return _run_chaos_verdict(
            simulation, deployment, streams, chaos, seed,
            traffic=scenario.traffic,
        )
    finally:
        closer = getattr(simulation, "close", None)
        if closer is not None:
            closer()


def _run_chaos_verdict(
    simulation,
    deployment,
    streams: RngStreams,
    chaos: ChaosConfig,
    seed: int,
    traffic=None,
) -> Dict[str, Any]:
    """Drive one campaign on an armed simulation; return the verdict dict.

    Works identically against the in-process dynamic simulation and the
    sharded facade — everything it touches (``stabilize``, ``snapshot``,
    ``run_for``, ``runtime.radio.faults``, ``tracer``) is part of the
    shared surface the facade mirrors.

    With ``traffic`` (the scenario's parsed
    :class:`~repro.traffic.TrafficConfig`), a data-plane workload is
    generated over the chaos window and forwarded hop-by-hop while the
    structure is being damaged; its
    :func:`~repro.traffic.fold_traffic_report` joins the verdict under
    ``"traffic"`` (single router: the first of its ``routers``).
    """
    from ..analysis import changed_cells

    configured = simulation.stabilize(
        window=chaos.settle_window,
        max_time=chaos.configure_budget,
        field=deployment.field,
        check_invariants=False,
    )
    if not configured.stable:
        return StabilizationVerdict(
            seed=seed,
            healed=False,
            timed_out=True,
            healing_time=None,
            cells_disturbed=0,
            events_injected=0,
            violations=("initial configuration did not stabilise",),
            last_change_category=configured.last_change_category,
            configured_at=None,
        ).to_dict()
    before = simulation.snapshot()
    campaign = ChaosCampaign(chaos, streams)
    injected = campaign.inject(simulation, deployment.field)
    packets = plane = None
    if traffic is not None:
        from ..traffic import generate_workload
        from ..traffic.runner import attach_plane, schedule_packets

        packets = generate_workload(
            traffic, simulation.network, seed, simulation.now
        )
        plane = attach_plane(
            simulation, traffic.plane_config(traffic.routers[0])
        )
        schedule_packets(simulation, plane, packets)
    simulation.run_for(chaos.duration)
    chaos_end = simulation.now
    report = simulation.stabilize(
        window=chaos.settle_window,
        max_time=chaos_end + chaos.heal_budget,
        field=deployment.field,
    )
    after = simulation.snapshot()
    faults = simulation.runtime.radio.faults
    healing_time = (
        max(0.0, report.converged_at - chaos_end) if report.stable else None
    )
    traffic_report = None
    if packets is not None:
        from ..traffic import fold_traffic_report
        from ..traffic.runner import collect_traffic

        terminals, hops, relay_load = collect_traffic(simulation, plane)
        traffic_report = fold_traffic_report(
            packets, terminals, hops, relay_load
        )
    return StabilizationVerdict(
        seed=seed,
        healed=report.healed,
        timed_out=not report.stable,
        healing_time=healing_time,
        cells_disturbed=len(changed_cells(before, after)),
        events_injected=injected,
        violations=report.violations,
        last_change_category=report.last_change_category,
        configured_at=configured.converged_at,
        jam_drops=faults.jam_drops if faults is not None else 0,
        loss_drops=faults.loss_drops if faults is not None else 0,
        root_regenerations=simulation.tracer.count("root.regenerate"),
        traffic=traffic_report,
    ).to_dict()


def run_chaos_campaigns(
    data: Dict[str, Any], campaigns: int, **kwargs: Any
) -> List[ReplicateOutcome]:
    """Fan a campaign description across ``campaigns`` derived seeds.

    :func:`~repro.sim.run_campaign` over :func:`run_chaos_replicate`,
    stored under the description's
    :func:`~repro.sim.campaign_identity`; keyword arguments
    (``base_seed``, ``workers``, ``store``, ``resume``, ``retries``,
    pool supervision, ``supervision_log``) pass through.
    """
    return run_campaign(
        run_chaos_replicate,
        "chaos",
        data,
        campaigns,
        campaign_identity(data),
        **kwargs,
    )


def summarize_verdicts(
    outcomes: Sequence[ReplicateOutcome],
) -> Dict[str, Any]:
    """Aggregate campaign outcomes into the BENCH/CLI summary shape."""
    verdicts = [o.result for o in outcomes if o.ok]
    crashed = sum(1 for o in outcomes if not o.ok)
    healed = [v for v in verdicts if v["healed"]]
    times = sorted(
        v["healing_time"] for v in healed if v["healing_time"] is not None
    )
    summary: Dict[str, Any] = {
        "campaigns": len(outcomes),
        "crashed": crashed,
        "healed": len(healed),
        "healed_fraction": (
            len(healed) / len(verdicts) if verdicts else 0.0
        ),
        "timed_out": sum(1 for v in verdicts if v["timed_out"]),
        "events_injected_total": sum(
            v["events_injected"] for v in verdicts
        ),
        "cells_disturbed_mean": (
            sum(v["cells_disturbed"] for v in verdicts) / len(verdicts)
            if verdicts
            else 0.0
        ),
    }
    summary["healing_time"] = (
        {
            "p50": percentile(times, 0.50),
            "p90": percentile(times, 0.90),
            "max": times[-1],
        }
        if times
        else None
    )
    return summary
