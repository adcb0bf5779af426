"""High-level driver for GS3 protocol runs.

``Gs3Simulation`` wires a deployment (or a prebuilt network) to a node
program class, runs the diffusing computation, and exposes snapshots
and convergence measurement.  This is the main entry point of the
public API::

    from repro import GS3Config, Gs3Simulation, uniform_disk
    from repro.sim import RngStreams

    deployment = uniform_disk(500.0, 2000, RngStreams(1))
    sim = Gs3Simulation.from_deployment(deployment, GS3Config())
    sim.run_to_quiescence()
    snapshot = sim.snapshot()
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
)

from ..geometry import Disk
from ..net import ChannelFaultConfig, Deployment, Network
from ..sim import Tracer
from ..sim.engine import DRIVER_BASE
from .config import GS3Config
from .driver_ops import DRIVER_OPS, PacketOps
from .gs3s import Gs3StaticNode
from .runtime import Gs3Runtime
from .snapshot import StructureSnapshot, take_snapshot

__all__ = [
    "Gs3Simulation",
    "StabilityReport",
    "STRUCTURE_CHANGE_CATEGORIES",
    "boot_programs",
    "converged_at",
    "snapshot_with_gaps",
    "stabilize",
]

#: Trace categories that indicate the head-level structure changed.
#: ``run_until_stable`` declares convergence when none of these have
#: fired for a full window.
STRUCTURE_CHANGE_CATEGORIES = (
    "head.become",
    "head.selected",
    "head.claim",
    "head.retreat",
    "associate.join",
    "parent.change",
    "cell.shift",
    "cell.abandoned",
    "node.bootup",
    "sanity.reset",
    "root.regenerate",
    "root.handback",
    "big.step_aside",
    "big.reseed",
)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a :meth:`Gs3Simulation.stabilize` attempt.

    The non-raising companion of :meth:`Gs3Simulation.run_until_stable`:
    instead of a bare ``TimeoutError`` a failed stabilisation comes back
    with diagnostics — which invariants are still violated, what kind of
    structure change fired last (and when), and how much work is still
    queued — so chaos campaigns and sweeps can record *why* a replicate
    did not heal.
    """

    #: Whether structure changes ceased within the budget.
    stable: bool
    #: Virtual time when the check ended.
    time: float
    #: The convergence instant (time of the last structure change; the
    #: end time when no change ever occurred).  ``None`` on timeout.
    converged_at: Optional[float]
    #: Category of the most recent structure-changing trace, if any.
    last_change_category: Optional[str]
    #: Time of that trace, if any.
    last_change_time: Optional[float]
    #: Events still pending on the simulator when the check ended.
    pending_events: int
    #: Invariant violations at the end (empty when not checked).
    violations: Tuple[str, ...] = ()
    #: Whether the run was cut off at a replay ``horizon`` before
    #: stability could be decided (see :meth:`Gs3Simulation.stabilize`).
    horizon_reached: bool = False

    @property
    def healed(self) -> bool:
        """Stable *and* invariant-clean — the self-healing verdict."""
        return self.stable and not self.violations

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (for verdict payloads)."""
        return {
            "stable": self.stable,
            "time": self.time,
            "converged_at": self.converged_at,
            "last_change_category": self.last_change_category,
            "last_change_time": self.last_change_time,
            "pending_events": self.pending_events,
            "violations": list(self.violations),
            "horizon_reached": self.horizon_reached,
        }


def stabilize(
    simulation,
    window: float = 50.0,
    max_time: float = 100_000.0,
    categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
    check_invariants: bool = True,
    field: Optional[Disk] = None,
    dynamic: bool = True,
    horizon: Optional[float] = None,
) -> StabilityReport:
    """Run ``simulation`` until its structure stops changing; always a
    report.

    ``simulation`` is a :class:`Gs3Simulation` or a sharded
    :class:`~repro.sim.shard.ShardedSimulation`: everything used here —
    ``start``, ``snapshot_and_gaps``, ``network`` and the
    ``runtime.sim`` clock and ``runtime.tracer`` — is the surface both
    share.

    The run advances in ``window``-sized steps and is stable once no
    structure-changing trace fired for a whole window (or the queue
    drained).  On success the report carries the convergence instant;
    on timeout it carries diagnostics (failing invariants, the last
    structure-change category and time, pending event count) instead
    of an exception — the form chaos campaigns aggregate into
    :class:`~repro.perturb.chaos.StabilizationVerdict`.

    ``check_invariants`` runs the SI/DI conjunction at the end
    (pass the deployment ``field`` for the boundary-aware checks;
    ``dynamic`` selects the DI children bound).  Skipped checks
    leave ``violations`` empty.

    ``horizon`` is the deterministic-replay cut-off: the run stops
    the moment virtual time reaches it (events at times ``<=
    horizon`` are processed, nothing beyond) and the report comes
    back with ``horizon_reached=True``.  Crucially the stabilise
    loop still advances in exactly the same ``window``-sized steps
    as an uncapped run up to that point, so the pre-horizon
    trajectory — and therefore the state at the horizon — is
    byte-identical to the uninterrupted run's.
    """
    simulation.start()
    sim = simulation.runtime.sim
    tracer = simulation.runtime.tracer
    categories = tuple(categories)
    stable = False
    converged: Optional[float] = None
    while sim.now < max_time:
        if horizon is not None and sim.now + window > horizon:
            if sim.now < horizon:
                sim.run(until=horizon)
            return StabilityReport(
                stable=False,
                time=sim.now,
                converged_at=None,
                last_change_category=None,
                last_change_time=None,
                pending_events=sim.pending_events,
                horizon_reached=True,
            )
        sim.run_for(window)
        last_change = tracer.last_time(*categories)
        if last_change is None or last_change <= sim.now - window:
            stable = True
            converged = last_change if last_change is not None else sim.now
            break
        if sim.next_event_time() is None:
            # The queue drained mid-window; ``last_change`` is not
            # None here (the branch above broke otherwise).
            stable = True
            converged = last_change
            break
    last_category: Optional[str] = None
    last_time: Optional[float] = None
    by_category = tracer.last_time_by_category
    for category in categories:
        t = by_category.get(category)
        if t is not None and (last_time is None or t > last_time):
            last_category, last_time = category, t
    violations: List[str] = []
    if check_invariants:
        from .invariants import check_static_invariant

        snapshot, gaps = simulation.snapshot_and_gaps()
        violations = check_static_invariant(
            snapshot,
            simulation.network,
            field=field,
            gap_axials=gaps,
            dynamic=dynamic,
        )
    return StabilityReport(
        stable=stable,
        time=sim.now,
        converged_at=converged,
        last_change_category=last_category,
        last_change_time=last_time,
        pending_events=sim.pending_events,
        violations=tuple(violations),
    )


def converged_at(
    simulation,
    window: float = 50.0,
    max_time: float = 100_000.0,
    categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
) -> float:
    """The convergence instant of ``simulation.stabilize`` without the
    invariant check.

    Raises:
        TimeoutError: when ``max_time`` passes without stability.
    """
    report = simulation.stabilize(
        window=window,
        max_time=max_time,
        categories=categories,
        check_invariants=False,
    )
    if not report.stable:
        raise TimeoutError(
            f"structure did not stabilise within {max_time} ticks"
        )
    # ``converged_at`` is set on every stable report; asserting the
    # contract here keeps the float return type honest.
    assert report.converged_at is not None
    return report.converged_at


def boot_programs(runtime: Gs3Runtime) -> None:
    """Boot every node program of ``runtime``, each in its own lane, in
    id order: the boot of an in-process run and of every shard worker."""
    sim = runtime.sim
    previous = sim.current_lane
    for node_id in sorted(runtime.nodes):
        sim.set_lane(node_id)
        runtime.nodes[node_id].start()
    sim.set_lane(previous)


def snapshot_with_gaps(runtime: Gs3Runtime) -> Tuple[StructureSnapshot, set]:
    """The structure of ``runtime``'s programs and the cells their heads
    know to be R_t-gap perturbed, minus any cell headed now: what an
    invariant verdict reads, from one snapshot."""
    snapshot = take_snapshot(runtime)
    gaps = set()
    for node in runtime.nodes.values():
        gaps |= getattr(node, "gap_axials", set())
    return snapshot, gaps - set(snapshot.head_by_axial)


class Gs3Simulation(PacketOps):
    """One protocol run: network + runtime + node programs.

    Drivers act on a run only through *driver operations* (perturbations
    in :class:`~repro.core.dynamic.Gs3DynamicSimulation`, packet
    injections here), from the one table in
    :mod:`~repro.core.driver_ops`.  Operation ``k`` runs on this run's
    runtime in its own lane ``DRIVER_BASE + k``, after every event due
    at its time, and its same-time follow-ups finish before the next
    operation starts — the rule a sharded run's coordinator follows
    too, which is what makes the two trajectories one.
    """

    def __init__(
        self,
        network: Network,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3StaticNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ):
        self.config = config
        self.network = network
        self.node_class = node_class
        self.seed = seed
        self.runtime = Gs3Runtime.build(
            network,
            config,
            seed=seed,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )
        self._started = False
        self._driver_ops = itertools.count()
        for node_id in network.node_ids():
            node_class(self.runtime, node_id)

    @classmethod
    def from_deployment(
        cls,
        deployment: Deployment,
        config: GS3Config,
        seed: int = 0,
        node_class: Type[Gs3StaticNode] = Gs3StaticNode,
        keep_trace_records: bool = True,
        channel_faults: Optional[ChannelFaultConfig] = None,
    ) -> "Gs3Simulation":
        """Build a network from a deployment and wrap it in a run.

        Node radio range defaults to the configuration's recommended
        maximum (enough for all local coordination).
        """
        network = deployment.build_network(
            max_range=config.recommended_max_range
        )
        return cls(
            network,
            config,
            seed=seed,
            node_class=node_class,
            keep_trace_records=keep_trace_records,
            channel_faults=channel_faults,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Boot every node program, each in its own lane (idempotent)."""
        if not self._started:
            self._started = True
            boot_programs(self.runtime)

    def _drive(self, kind: str, desc: tuple) -> Any:
        """Run driver op ``kind`` as the next operation (see the class
        docstring); returns the op's result."""
        lane = DRIVER_BASE + next(self._driver_ops)
        return self.runtime.sim.apply(
            lane, partial(DRIVER_OPS[kind], self, desc)
        )

    def run_to_quiescence(self, max_time: Optional[float] = None) -> float:
        """Run until the event queue drains (or ``max_time``).

        Appropriate for GS3-S, which has no periodic timers: an empty
        queue means the diffusing computation terminated.  Returns the
        virtual time reached.
        """
        self.start()
        return self.runtime.sim.run(until=max_time)

    def run_for(self, duration: float) -> float:
        """Advance the run by ``duration`` ticks."""
        self.start()
        return self.runtime.sim.run_for(duration)

    def run_until_stable(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
    ) -> float:
        """Run until no structure-changing event fires for ``window``.

        Appropriate for GS3-D/M, whose heartbeat timers keep the event
        queue busy forever.  Returns the time of the *last* structure
        change (the convergence instant), or the current time if no
        change ever occurred.

        Raises:
            TimeoutError: when ``max_time`` passes without stability.
            Use :meth:`stabilize` for a non-raising variant that
            returns diagnostics instead.
        """
        return converged_at(self, window, max_time, categories)

    def stabilize(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Iterable[str] = STRUCTURE_CHANGE_CATEGORIES,
        check_invariants: bool = True,
        field: Optional[Disk] = None,
        dynamic: bool = True,
        horizon: Optional[float] = None,
    ) -> StabilityReport:
        """Non-raising :meth:`run_until_stable`: always a report (see
        the module-level :func:`stabilize`)."""
        return stabilize(
            self, window, max_time, categories, check_invariants, field,
            dynamic, horizon,
        )

    # -- observation -------------------------------------------------------------

    def snapshot(self) -> StructureSnapshot:
        """The current structure."""
        return take_snapshot(self.runtime)

    def gap_axials(self) -> set:
        """Cells currently known to be R_t-gap perturbed.

        The union of every head's gap findings, minus any cell that has
        since been headed.  Pass to the invariant checkers so cells
        adjoining a gap are classified as boundary cells (Section 3.3).
        A check that needs the structure too calls
        :meth:`snapshot_and_gaps`, which takes one snapshot for both.
        """
        return self.snapshot_and_gaps()[1]

    def snapshot_and_gaps(self) -> Tuple[StructureSnapshot, set]:
        """The structure and its :meth:`gap_axials`, from one snapshot
        (:func:`snapshot_with_gaps`)."""
        return snapshot_with_gaps(self.runtime)

    @property
    def tracer(self) -> Tracer:
        """The run's trace sink."""
        return self.runtime.tracer

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.runtime.sim.now
