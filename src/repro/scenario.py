"""Declarative scenario runner.

Encodes a complete experiment — deployment, protocol configuration,
perturbation schedule, and measurement points — as plain data (JSON-
compatible dictionaries), so that experiments can be stored in files,
shared, and replayed exactly.  Used by the CLI's ``scenario`` command.

Example scenario::

    {
      "seed": 7,
      "config": {"ideal_radius": 100.0, "radius_tolerance": 25.0},
      "deployment": {"kind": "uniform", "field_radius": 300.0,
                      "n_nodes": 1000},
      "mobile": false,
      "channel": {"bernoulli_loss": 0.05, "latency_jitter": 0.2},
      "perturbations": [
        {"kind": "kill_head", "at": 200.0},
        {"kind": "region_kill", "at": 600.0,
         "center": [150.0, 0.0], "radius": 80.0},
        {"kind": "join", "at": 900.0, "position": [10.0, 20.0]},
        {"kind": "corrupt_head", "at": 1200.0},
        {"kind": "jam_region", "at": 1350.0,
         "center": [0.0, 120.0], "radius": 60.0, "duration": 80.0},
        {"kind": "churn", "at": 1450.0, "duration": 300.0,
         "leave_rate": 0.005, "join_rate": 0.003},
        {"kind": "move_big", "at": 2000.0, "to": [173.2, 0.0]}
      ],
      "settle_window": 120.0
    }

The optional ``channel`` block (see
:class:`repro.net.faults.ChannelFaultConfig`) configures adversarial
channel faults — Bernoulli or Gilbert–Elliott bursty loss, latency
jitter, frame duplication — applied to every broadcast delivery for
the whole run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .analysis import changed_cells
from .core import (
    GS3Config,
    Gs3DynamicNode,
    Gs3DynamicSimulation,
    Gs3MobileNode,
    check_static_invariant,
)
from .geometry import Vec2
from .net import ChannelFaultConfig, deployment_from_spec
from .perturb import PerturbationInjector, churn_workload
from .sim import RngStreams, ShardSupervision, canonical_digest
from .sim.shard import SHARD_EXECUTORS, ShardedSimulation
from .traffic.generators import TrafficConfig

__all__ = [
    "HorizonReached",
    "KNOWN_PERTURBATION_KINDS",
    "Scenario",
    "ScenarioExecution",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_replicate",
]


class HorizonReached(Exception):
    """A :class:`ScenarioExecution` hit its virtual-time horizon."""


class _Unsettled(Exception):
    """A configure or heal ran out its budget; the message names it."""


#: Perturbation kinds ``_apply_perturbation`` understands; validated at
#: parse time so a typo fails before the expensive configuration phase.
KNOWN_PERTURBATION_KINDS = frozenset(
    {
        "kill_head",
        "kill_node",
        "region_kill",
        "join",
        "corrupt_head",
        "move_big",
        "move_node",
        "jam_region",
        "churn",
    }
)

#: Every top-level key :meth:`Scenario.from_dict` reads; any other key
#: is refused, so a misspelt block never runs as a different scenario.
#: (A campaign's ``chaos`` block is read by
#: :func:`repro.perturb.chaos.parse_campaign`, never by a scenario.)
_SCENARIO_KEYS = frozenset(
    {
        "seed",
        "config",
        "deployment",
        "perturbations",
        "mobile",
        "settle_window",
        "channel",
        "shards",
        "shard_executor",
        "supervise",
        "traffic",
    }
)

#: Extra required fields per kind (beyond ``kind`` and ``at``), checked
#: at parse time.
_REQUIRED_FIELDS = {
    "kill_node": ("node_id",),
    "region_kill": ("center", "radius"),
    "join": ("position",),
    "move_big": ("to",),
    "move_node": ("node_id", "to"),
    "jam_region": ("center", "radius", "duration"),
    "churn": ("duration",),
}


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run."""

    #: Virtual time when initial configuration stabilised (``None``
    #: when it never did).
    configured_at: Optional[float]
    #: One entry per perturbation healed: kind, healing time, cells
    #: changed.
    perturbation_log: List[Dict[str, Any]]
    #: Invariant violations at the end (should be empty).
    final_violations: List[str]
    #: Final cell count.
    final_cells: int
    #: The step that did not stabilise within its budget, naming the
    #: budget; the run stopped there (``None`` when every step settled).
    unstable: Optional[str] = None

    def ok(self) -> bool:
        """Whether the scenario ended in a healthy state."""
        return not self.final_violations and self.unstable is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (for sweep aggregation);
        ``unstable`` appears only when set."""
        out: Dict[str, Any] = {
            "configured_at": self.configured_at,
            "perturbation_log": [dict(e) for e in self.perturbation_log],
            "final_violations": list(self.final_violations),
            "final_cells": self.final_cells,
        }
        if self.unstable is not None:
            out["unstable"] = self.unstable
        return out


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment description."""

    seed: int
    config: GS3Config
    deployment_spec: Dict[str, Any]
    perturbations: Sequence[Dict[str, Any]]
    mobile: bool = False
    settle_window: float = 120.0
    #: Adversarial channel configuration (loss / jitter / duplication);
    #: ``None`` keeps the radio's reliable-broadcast fast path.
    channel: Optional[ChannelFaultConfig] = None
    #: Spatial sharding: ``None`` runs in process; an int (>= 1) runs
    #: the sharded executor with that many regions.  Never
    #: digest-relevant: results are byte-identical either way.
    shards: Optional[int] = None
    #: Shard executor flavour (``inline`` or ``process``).  Never
    #: digest-relevant: executors are bit-identical by contract.
    shard_executor: str = "inline"
    #: Supervision knobs for the process shard executor (deadline,
    #: retries, infra-chaos injection, inline fallback).  Never
    #: digest-relevant: a run that completes under supervision (even
    #: through respawns or an inline fallback) is byte-identical to the
    #: unsupervised run by contract.
    supervise: Optional[ShardSupervision] = None
    #: Data-plane workload (see :class:`repro.traffic.TrafficConfig`),
    #: run by the chaos and traffic replicates only:
    #: :class:`ScenarioExecution` attaches no data plane, and the
    #: ``scenario``, ``sweep``, ``replay`` and ``bisect`` commands refuse
    #: a scenario that carries one.  Digest-relevant — the block selects
    #: which packets fly and hence what the run reports (data frames draw
    #: from dedicated ``radio.*.data.*`` streams and data lanes, so the
    #: *control-plane* trajectory is unchanged, but the output is not).
    traffic: Optional[TrafficConfig] = None

    def __post_init__(self) -> None:
        # The sharding limits hold for every scenario, parsed or
        # replaced, before anything is built from it.
        if self.shard_executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"unknown shard executor {self.shard_executor!r}; "
                f"expected one of {sorted(SHARD_EXECUTORS)}"
            )
        if self.shards is not None:
            if self.shards < 1:
                raise ValueError(f"shards must be >= 1, got {self.shards}")
            if self.mobile:
                raise ValueError(
                    "mobile scenarios are not supported sharded; "
                    "drop 'shards' or 'mobile'"
                )

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Scenario":
        """Parse a scenario from plain data (e.g. loaded JSON)."""
        unknown = set(data) - _SCENARIO_KEYS
        if unknown:
            raise ValueError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"known keys: {sorted(_SCENARIO_KEYS)}"
            )
        config = GS3Config(**data.get("config", {}))
        perturbations = list(data.get("perturbations", []))
        for p in perturbations:
            if "kind" not in p or "at" not in p:
                raise ValueError(
                    f"perturbation needs 'kind' and 'at': {p!r}"
                )
            if p["kind"] not in KNOWN_PERTURBATION_KINDS:
                raise ValueError(
                    f"unknown perturbation kind {p['kind']!r}; "
                    f"known kinds: {sorted(KNOWN_PERTURBATION_KINDS)}"
                )
            missing = [
                f for f in _REQUIRED_FIELDS.get(p["kind"], ()) if f not in p
            ]
            if missing:
                raise ValueError(
                    f"perturbation kind {p['kind']!r} needs {missing}: {p!r}"
                )
            # The run advances by these durations, and its clock never
            # runs backwards: a churn window may be empty, a jam must
            # last, and neither may be infinite.
            if p["kind"] == "churn" and not (
                0.0 <= float(p["duration"]) < math.inf
            ):
                raise ValueError(
                    f"churn duration must be finite and >= 0: {p!r}"
                )
            if p["kind"] == "jam_region" and not (
                0.0 < float(p["duration"]) < math.inf
            ):
                raise ValueError(
                    f"jam_region duration must be finite and > 0: {p!r}"
                )
        # Every heal is awaited in steps of this window.
        settle_window = float(data.get("settle_window", 120.0))
        if not 0.0 < settle_window < math.inf:
            raise ValueError(
                f"settle_window must be finite and > 0, got {settle_window}"
            )
        channel_data = data.get("channel")
        shards = data.get("shards")
        return Scenario(
            seed=int(data.get("seed", 0)),
            config=config,
            deployment_spec=dict(data["deployment"]),
            perturbations=perturbations,
            mobile=bool(data.get("mobile", False)),
            settle_window=settle_window,
            channel=(
                ChannelFaultConfig.from_dict(channel_data)
                if channel_data
                else None
            ),
            shards=None if shards is None else int(shards),
            shard_executor=str(data.get("shard_executor", "inline")),
            supervise=(
                ShardSupervision.from_dict(data["supervise"])
                if data.get("supervise")
                else None
            ),
            # Present means parsed: ``"traffic": {}`` is the default
            # workload, as the chaos and traffic replicates run it.
            traffic=(
                TrafficConfig.from_dict(data["traffic"])
                if data.get("traffic") is not None
                else None
            ),
        )

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Parse a scenario from a JSON string."""
        return Scenario.from_dict(json.loads(text))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data round trip of the parsed scenario.

        Only fields that differ from the parse-time defaults appear, so
        a scenario parsed from minimal JSON canonicalises back to the
        same digest-relevant content.  Execution policy (``shards``,
        ``shard_executor``, ``supervise``) is left out: it never changes
        what a run computes.
        """
        data: Dict[str, Any] = {
            "seed": self.seed,
            "config": self.config.to_dict(),
            "deployment": dict(self.deployment_spec),
            "perturbations": [dict(p) for p in self.perturbations],
            "mobile": self.mobile,
            "settle_window": self.settle_window,
        }
        if self.channel is not None:
            data["channel"] = self.channel.to_dict()
        if self.traffic is not None:
            data["traffic"] = self.traffic.to_dict()
        return data

    def canonical_digest(self) -> str:
        """Content address of this scenario (canonical-JSON SHA-256).

        The identity key of the run-persistence layer
        (:class:`repro.sim.RunStore`): two scenarios digest equal iff
        their parsed content is equal, independent of key order or
        whitespace in the source JSON.
        """
        return canonical_digest(self.to_dict())

    def build_deployment(self):
        return deployment_from_spec(self.deployment_spec, RngStreams(self.seed))

    def build_simulation(self, deployment, keep_trace_records: bool = True):
        """The run this scenario describes, over ``deployment`` (built
        from :attr:`deployment_spec` and :attr:`seed`): the sharded
        coordinator when :attr:`shards` is set, else the in-process
        driver with the mobile or dynamic program."""
        if self.shards is not None:
            return ShardedSimulation(
                self.deployment_spec,
                self.config,
                seed=self.seed,
                shards=self.shards,
                executor=self.shard_executor,
                channel=self.channel,
                keep_trace_records=keep_trace_records,
                supervise=self.supervise,
            )
        return Gs3DynamicSimulation.from_deployment(
            deployment,
            self.config,
            seed=self.seed,
            node_class=Gs3MobileNode if self.mobile else Gs3DynamicNode,
            keep_trace_records=keep_trace_records,
            channel_faults=self.channel,
        )


def _non_big_head(sim: Gs3DynamicSimulation, kind: str):
    victim = next(
        (v for v in sim.snapshot().heads.values() if not v.is_big), None
    )
    if victim is None:
        # A bare ``next(...)`` here would leak an opaque StopIteration
        # out of the perturbation schedule.
        raise ValueError(
            f"perturbation {kind!r} needs a non-big head, but the "
            "structure has none (network too small or fully collapsed)"
        )
    return victim


class ScenarioExecution:
    """Step-wise scenario executor with an optional virtual-time horizon.

    Drives exactly the control flow of :func:`run_scenario` — configure,
    then for each perturbation: advance, apply, re-stabilise — but every
    clock advance is capped at ``horizon``.  The moment virtual time
    reaches the horizon, execution stops with the simulation left in
    precisely the state the *uncapped* run had at that instant: the
    driver computes the same window boundaries and processes the same
    event prefix, so replaying to ``t`` is deterministic and
    trajectory-faithful (the contract :mod:`repro.sim.replay` builds
    time-travel bisection on).

    Driver actions scheduled exactly *at* the horizon (perturbation
    applications with ``at == horizon``) are included, mirroring the
    engine's events-at-``<= t`` semantics.
    """

    def __init__(self, scenario: Scenario, horizon: Optional[float] = None):
        if horizon is not None and horizon < 0.0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        self.scenario = scenario
        self.horizon = horizon
        self.deployment = scenario.build_deployment()
        self.simulation = scenario.build_simulation(self.deployment)
        self.configured_at: Optional[float] = None
        self.log: List[Dict[str, Any]] = []
        self.result: Optional[ScenarioResult] = None
        self.horizon_reached = False

    # -- capped clock advances -----------------------------------------

    def _run_for(self, duration: float) -> None:
        """Advance ``duration`` ticks, stopping at the horizon.

        Computes the target as ``now + duration`` — the exact float
        arithmetic of the uncapped driver — so capping never shifts a
        window boundary that the full run would have used.
        """
        sim = self.simulation
        sim.start()
        engine = sim.runtime.sim
        target = engine.now + duration
        if self.horizon is not None and target > self.horizon:
            if engine.now < self.horizon:
                engine.run(until=self.horizon)
            raise HorizonReached(self.horizon)
        engine.run(until=target)

    def _stabilize(self, window: float, budget: float, step: str) -> float:
        """Horizon-aware :meth:`Gs3Simulation.run_until_stable`, allowing
        ``budget`` ticks from now; raises :class:`_Unsettled` naming
        ``step`` and the budget when they run out."""
        report = self.simulation.stabilize(
            window=window,
            max_time=self.simulation.now + budget,
            check_invariants=False,
            horizon=self.horizon,
        )
        if report.horizon_reached:
            raise HorizonReached(self.horizon)
        if not report.stable:
            raise _Unsettled(
                f"{step} did not stabilise within {budget} ticks"
            )
        assert report.converged_at is not None
        return report.converged_at

    # -- perturbations --------------------------------------------------

    def _apply_perturbation(self, spec: Dict[str, Any]) -> str:
        sim = self.simulation
        field = self.deployment.field
        kind = spec["kind"]
        if kind == "kill_head":
            victim = _non_big_head(sim, kind)
            sim.kill_node(victim.node_id)
            return f"killed head {victim.node_id}"
        if kind == "kill_node":
            sim.kill_node(int(spec["node_id"]))
            return f"killed node {spec['node_id']}"
        if kind == "region_kill":
            center = Vec2(*spec["center"])
            victims = sim.kill_region(center, float(spec["radius"]))
            return f"killed {len(victims)} nodes"
        if kind == "join":
            node_id = sim.add_node(Vec2(*spec["position"]))
            return f"joined node {node_id}"
        if kind == "corrupt_head":
            victim = _non_big_head(sim, kind)
            sim.corrupt_node(victim.node_id)
            return f"corrupted head {victim.node_id}"
        if kind == "move_big":
            sim.move_node(sim.network.big_id, Vec2(*spec["to"]))
            return "moved big node"
        if kind == "move_node":
            sim.move_node(int(spec["node_id"]), Vec2(*spec["to"]))
            return f"moved node {spec['node_id']}"
        if kind == "jam_region":
            window = sim.jam_region(
                Vec2(*spec["center"]),
                float(spec["radius"]),
                float(spec["duration"]),
            )
            # A jam touches no node state, so the network can look
            # perfectly quiescent mid-outage (the pre-0.2 "quiescent
            # wedge": the driver settled during the jam and recorded a
            # wedged structure as stable).  Healing is only judgeable
            # once the channel clears — run through the window first.
            self._run_for(float(spec["duration"]))
            return f"jammed disk r={spec['radius']} until t={window.end}"
        if kind == "churn":
            duration = float(spec["duration"])
            events = churn_workload(
                [n.node_id for n in sim.network.alive_nodes()],
                field.radius,
                sim.runtime.rng,
                sim.now,
                sim.now + duration,
                join_rate=float(spec.get("join_rate", 0.0)),
                leave_rate=float(spec.get("leave_rate", 0.0)),
                corruption_rate=float(spec.get("corruption_rate", 0.0)),
            )
            count = PerturbationInjector(sim).schedule(events)
            self._run_for(duration)
            return f"injected {count} churn events over {duration} ticks"
        raise ValueError(f"unknown perturbation kind {kind!r}")

    # -- driving ---------------------------------------------------------

    def execute(self) -> Optional[ScenarioResult]:
        """Run to completion or to the horizon.

        Returns the :class:`ScenarioResult` when the scenario finished,
        or stopped at a configure or heal that did not stabilise within
        its budget (named by :attr:`ScenarioResult.unstable`); ``None``
        when the horizon cut execution short (the state is then
        inspectable via :attr:`simulation`).
        """
        sim = self.simulation
        scenario = self.scenario
        unstable = None
        try:
            self.configured_at = self._stabilize(
                scenario.settle_window, 50_000.0, "initial configuration"
            )
            ordered = sorted(
                scenario.perturbations, key=lambda p: float(p["at"])
            )
            for spec in ordered:
                at = float(spec["at"])
                if sim.now < at:
                    self._run_for(at - sim.now)
                before = sim.snapshot()
                start = sim.now
                what = self._apply_perturbation(spec)
                healed_at = self._stabilize(
                    scenario.settle_window,
                    60_000.0,
                    f"the heal after {spec['kind']} at t={at}",
                )
                after = sim.snapshot()
                self.log.append(
                    {
                        "kind": spec["kind"],
                        "detail": what,
                        "healing_time": max(0.0, healed_at - start),
                        "cells_changed": len(changed_cells(before, after)),
                    }
                )
        except HorizonReached:
            self.horizon_reached = True
            return None
        except _Unsettled as exc:
            unstable = str(exc)
        self.result = self._final_result(unstable)
        return self.result

    def close(self) -> None:
        """Release executor resources (worker processes, pipes).

        A no-op for the in-process simulation, which has no
        ``close``; sharded simulations shut their workers down.
        """
        closer = getattr(self.simulation, "close", None)
        if closer is not None:
            closer()

    def _final_result(self, unstable: Optional[str]) -> ScenarioResult:
        sim = self.simulation
        scenario = self.scenario
        final, gaps = sim.snapshot_and_gaps()
        violations = check_static_invariant(
            final,
            sim.network,
            field=self.deployment.field,
            gap_axials=gaps,
            dynamic=True,
            gap_diameter=2.0
            * max(
                (
                    float(p.get("radius", 0.0))
                    for p in scenario.perturbations
                    if p["kind"] == "region_kill"
                ),
                default=0.0,
            ),
        )
        return ScenarioResult(
            configured_at=self.configured_at,
            perturbation_log=self.log,
            final_violations=violations,
            final_cells=len(final.heads),
            unstable=unstable,
        )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute a scenario: configure, perturb, heal, measure."""
    execution = ScenarioExecution(scenario)
    try:
        result = execution.execute()
    finally:
        execution.close()
    # Without a horizon, execute() always returns a result.
    assert result is not None
    return result


def run_scenario_replicate(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Picklable sweep worker: one seeded replicate of a scenario.

    ``spec`` is ``{"data": <scenario dict>, "seed": <int>}`` — plain
    data so it crosses process boundaries.  The replicate runs the
    scenario with its ``seed`` overridden and returns the result as a
    JSON-compatible dict (seed included, wall timing excluded — the
    sweep layer records timing separately so payloads stay
    deterministic).  Used by ``repro sweep`` via
    :class:`repro.sim.SweepRunner`.
    """
    data = dict(spec["data"])
    seed = int(spec["seed"])
    data["seed"] = seed
    result = run_scenario(Scenario.from_dict(data))
    payload = result.to_dict()
    payload["seed"] = seed
    return payload
