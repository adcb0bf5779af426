"""Deterministic replay and time-travel bisection of scenario runs.

Self-stabilization analysis wants the system *at the instant a
predicate first breaks* (cf. Trehan's self-healing framework and the
Benreguia et al. self-stabilizing MD2IS work): healing bugs are
diagnosed from the first broken state, not from a 60k-tick trace.
Because every replicate is a pure function of ``(scenario, seed)``,
that instant can be found cheaply by **re-execution**:

* :func:`replay_to` re-runs a replicate to virtual time ``t`` and
  hands back the live simulation plus its
  :class:`~repro.core.StructureSnapshot` — the full run's state at
  ``t``, byte-for-byte (see
  :class:`repro.scenario.ScenarioExecution`'s horizon contract);
* :func:`state_digest` reduces a snapshot to a canonical SHA-256 that
  is stable across processes, worker pools, and machines — the
  cross-process equality oracle;
* :func:`bisect_onset` binary-searches virtual time in
  ``O(log(t_max / tol))`` re-executions to pin the first instant a
  predicate (invariant violation, head-tree partition, ...) becomes
  true.

The predicates in :data:`PREDICATES` cover the standing failure modes;
any ``Callable[[ReplayState], bool]`` works.  Bisection assumes the
predicate is monotone on ``[t_min, t_max]`` (false before the onset,
true after); for a predicate that flickers, the result is still *a*
false-to-true boundary, just not necessarily the earliest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .store import canonical_json

__all__ = [
    "BisectResult",
    "PREDICATES",
    "ReplayState",
    "bisect_onset",
    "head_tree_partitioned",
    "invariant_violated",
    "replay_to",
    "root_liveness_violated",
    "state_digest",
]


@dataclass(frozen=True)
class ReplayState:
    """A replicate re-executed to a virtual instant.

    ``simulation`` is live — callers may keep running it, snapshot it
    again, or inspect node internals.  ``time`` is the virtual time
    actually reached (less than ``requested_time`` only when the
    scenario completed first and the driver stopped advancing).
    """

    scenario: Any
    seed: int
    requested_time: float
    time: float
    simulation: Any
    snapshot: Any
    #: The cells known R_t-gap perturbed at ``time``, read from the
    #: same snapshot (``simulation.snapshot_and_gaps``).
    gap_axials: Any
    field: Any
    #: Whether the scenario ran to completion before the horizon.
    completed: bool
    #: The final :class:`~repro.scenario.ScenarioResult` when completed.
    result: Optional[Any]


def replay_to(scenario, seed: int, t: float) -> ReplayState:
    """Deterministically re-execute a replicate to virtual time ``t``.

    The returned state is the uninterrupted run's state at ``t``: all
    events and driver actions at times ``<= t`` applied, nothing
    beyond.  Pure in ``(scenario, seed, t)`` — two replays of the same
    triple agree on :func:`state_digest` in any process.
    """
    from ..scenario import ScenarioExecution

    if t < 0.0:
        raise ValueError(f"replay time must be >= 0, got {t}")
    replayed = dataclass_replace(scenario, seed=int(seed))
    execution = ScenarioExecution(replayed, horizon=t)
    result = execution.execute()
    simulation = execution.simulation
    snapshot, gaps = simulation.snapshot_and_gaps()
    return ReplayState(
        scenario=replayed,
        seed=int(seed),
        requested_time=t,
        time=simulation.now,
        simulation=simulation,
        snapshot=snapshot,
        gap_axials=gaps,
        field=execution.deployment.field,
        completed=result is not None,
        result=result,
    )


# -- canonical state hashing -------------------------------------------------


def _num(value: float) -> str:
    """Shortest round-trip decimal of a float (stable across CPython)."""
    return repr(float(value))


def _vec(value) -> Optional[Tuple[str, str]]:
    return None if value is None else (_num(value.x), _num(value.y))


def state_digest(snapshot) -> str:
    """Canonical SHA-256 of a :class:`StructureSnapshot`.

    Serialises every protocol-visible field of every node view (sorted
    by node id; floats as shortest-round-trip ``repr``) plus the
    snapshot's time and geometry, then hashes the canonical JSON.  Two
    digests are equal iff the protocol states are — across processes,
    worker pools, and hosts.
    """
    views = []
    for node_id in sorted(snapshot.views):
        view = snapshot.views[node_id]
        views.append(
            [
                view.node_id,
                view.status.name,
                view.alive,
                view.is_big,
                None if view.cell_axial is None else list(view.cell_axial),
                _vec(view.position),
                _vec(view.current_il),
                _vec(view.oil),
                list(view.icc_icp),
                view.parent_id,
                view.hops_to_root,
                view.head_id,
                view.is_candidate,
                view.root_epoch,
                None
                if view.root_heard_at is None
                else _num(view.root_heard_at),
            ]
        )
    payload = {
        "time": _num(snapshot.time),
        "ideal_radius": _num(snapshot.ideal_radius),
        "radius_tolerance": _num(snapshot.radius_tolerance),
        "big_id": snapshot.big_id,
        "views": views,
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


# -- predicates --------------------------------------------------------------


def head_tree_partitioned(state: ReplayState) -> bool:
    """Some head cannot reach a tree root by following parent pointers.

    Catches the jam-wedge failure mode recorded in EXPERIMENTS.md §
    CHAOS: after a long jam over the big node's region the head tree
    can end up rootless or cyclic while the network looks quiescent.
    Trivially false while no heads exist (e.g. during boot-up).
    """
    snapshot = state.snapshot
    heads = snapshot.heads
    if not heads:
        return False
    roots = set(snapshot.roots)
    reachable: Dict[int, bool] = {}
    for head_id in heads:
        trail = []
        current = head_id
        while True:
            if current in reachable:
                verdict = reachable[current]
                break
            if current in roots:
                verdict = True
                break
            trail.append(current)
            view = heads.get(current)
            parent = None if view is None else view.parent_id
            if (
                view is None  # parent points at a non-head / dead node
                or parent is None
                or parent in trail  # cycle
                or current in trail[:-1]
            ):
                verdict = False
                break
            current = parent
        for node_id in trail:
            reachable[node_id] = verdict
        reachable[current] = verdict
        if not verdict:
            return True
    return False


def invariant_violated(state: ReplayState) -> bool:
    """The paper's SI/DI invariant conjunction fails on the snapshot."""
    from ..core import check_static_invariant

    return bool(
        check_static_invariant(
            state.snapshot,
            state.simulation.network,
            field=state.field,
            gap_axials=state.gap_axials,
            dynamic=True,
        )
    )


def root_liveness_violated(state: ReplayState) -> bool:
    """Some head's root freshness exceeds the staleness horizon.

    Uses the run's configured ``root_stale_horizon`` plus one failure
    timeout of slack for propagation lag (freshness diffuses one hop
    per beat, so deep heads legitimately trail the root).  True during
    a wedge; false again once ROOT_SEEK regenerated a root.
    """
    from ..core import check_root_liveness

    config = state.simulation.config
    horizon = config.root_stale_horizon + config.failure_timeout
    return bool(check_root_liveness(state.snapshot, horizon))


#: Named predicates for the ``repro bisect`` CLI.
PREDICATES: Dict[str, Callable[[ReplayState], bool]] = {
    "invariant": invariant_violated,
    "partition": head_tree_partitioned,
    "root_stale": root_liveness_violated,
}


# -- bisection ---------------------------------------------------------------


@dataclass(frozen=True)
class BisectResult:
    """Outcome of a :func:`bisect_onset` search.

    ``onset`` is ``None`` when the predicate never became true by
    ``t_max``; otherwise the predicate is false at ``lo`` (or ``lo`` is
    ``t_min``), true at ``onset``, and ``onset - lo <= tol``.
    ``bisect_steps`` counts only the binary-search re-executions —
    bounded by ``ceil(log2((t_max - t_min) / tol))`` — while
    ``replays`` also counts the endpoint probe.
    """

    onset: Optional[float]
    lo: float
    hi: float
    replays: int
    bisect_steps: int
    probes: Tuple[Tuple[float, bool], ...]
    #: The replayed state at ``onset`` (the earliest *true* probe).
    state: Optional[ReplayState] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible summary (without the live state)."""
        return {
            "onset": self.onset,
            "lo": self.lo,
            "hi": self.hi,
            "replays": self.replays,
            "bisect_steps": self.bisect_steps,
            "probes": [list(p) for p in self.probes],
        }


def bisect_onset(
    scenario,
    seed: int,
    predicate: Callable[[ReplayState], bool],
    t_max: float,
    t_min: float = 0.0,
    tol: float = 1.0,
    check_t_max: bool = True,
) -> BisectResult:
    """Binary-search the first instant ``predicate`` becomes true.

    Re-executes the replicate ``O(log((t_max - t_min) / tol))`` times —
    each replay runs only to its probe time, so early probes are cheap —
    and narrows the false→true boundary to within ``tol`` ticks.

    ``check_t_max`` first verifies the predicate actually holds at
    ``t_max`` (one extra replay); pass ``False`` when the caller
    already knows it does, keeping total re-executions at exactly the
    binary-search count.  The predicate is assumed false at ``t_min``.
    """
    if t_max <= t_min:
        raise ValueError(f"need t_max > t_min, got [{t_min}, {t_max}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    probes: List[Tuple[float, bool]] = []
    replays = 0
    onset_state: Optional[ReplayState] = None
    if check_t_max:
        state = replay_to(scenario, seed, t_max)
        replays += 1
        verdict = predicate(state)
        probes.append((t_max, verdict))
        if not verdict:
            return BisectResult(
                onset=None,
                lo=t_min,
                hi=t_max,
                replays=replays,
                bisect_steps=0,
                probes=tuple(probes),
            )
        onset_state = state
    lo, hi = t_min, t_max
    bisect_steps = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        state = replay_to(scenario, seed, mid)
        replays += 1
        bisect_steps += 1
        verdict = predicate(state)
        probes.append((mid, verdict))
        if verdict:
            hi = mid
            onset_state = state
        else:
            lo = mid
    return BisectResult(
        onset=hi,
        lo=lo,
        hi=hi,
        replays=replays,
        bisect_steps=bisect_steps,
        probes=tuple(probes),
        state=onset_state,
    )
