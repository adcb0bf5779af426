"""Parallel execution of seeded replicate sweeps.

Every paper figure we reproduce is a Monte Carlo sweep of independent
seeded replicates (Fig 7/8 validation, healing locality, ablations,
baseline comparisons).  Those replicates share nothing — each builds
its own deployment, simulator, and rng streams from a seed — so they
shard cleanly across processes.  :class:`SweepRunner` is the one
execution path for all of them:

* replicates are described by picklable *specs* and executed by a
  picklable module-level function ``fn(spec) -> result``;
* per-replicate rng seeds derive deterministically from a master seed
  via :func:`replicate_seed` (SHA-256, like every other stream in
  :mod:`repro.sim.rng`) — the worker count never touches the random
  state a replicate sees;
* aggregated results come back **ordered by replicate index**, byte
  identical no matter how the sweep was sharded (``workers=0``, 1, or
  N);
* a crashed replicate is *captured* (traceback + timing in its
  :class:`ReplicateOutcome`), not propagated — one bad seed does not
  kill a 10k-replicate sweep;
* pool workers run under the supervision layer
  (:class:`~repro.sim.supervise.SupervisedPool`): a SIGKILLed, hung,
  or frame-corrupting worker is detected, the in-flight replicate is
  retried on a respawned worker with deterministic backoff, and a
  replicate that exhausts the budget is *quarantined* as a structured
  failure outcome — the sweep always completes;
* ``workers=0`` runs everything in-process through the very same
  emit path, for debugging and for environments without ``fork``.

Wall-clock timing is deliberately kept out of the deterministic
payload: ``ReplicateOutcome.result`` is reproducible; ``elapsed`` and
``infra`` are measurement/supervision metadata.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .rng import RngStreams, derive_seed
from .supervise import (
    InfraChaosConfig,
    RetryPolicy,
    SupervisedPool,
    SupervisionLog,
    drain_degradations,
)

__all__ = [
    "ReplicateOutcome",
    "SweepError",
    "SweepRunner",
    "campaign_identity",
    "replicate_seed",
    "replicate_streams",
    "run_campaign",
    "run_sweep",
    "sweep_results",
]


class SweepError(RuntimeError):
    """Raised when failed replicates are unwrapped via :func:`sweep_results`."""


def replicate_seed(master_seed: int, index: int) -> int:
    """The deterministic seed of replicate ``index`` in a sweep.

    Derived with the same SHA-256 scheme as named rng streams, so a
    sweep's replicate seeds are stable across machines, processes, and
    Python hash randomisation.
    """
    return derive_seed(master_seed, f"replicate:{index}")


def replicate_streams(master_seed: int, index: int) -> RngStreams:
    """Ready-to-use :class:`RngStreams` for replicate ``index``."""
    return RngStreams(replicate_seed(master_seed, index))


@dataclass(frozen=True)
class ReplicateOutcome:
    """What happened to one replicate of a sweep.

    ``result`` is the worker function's return value when ``ok``;
    ``error`` carries the formatted traceback when the replicate
    raised.  ``elapsed`` is the wall-clock seconds spent inside the
    worker function (metadata — excluded from deterministic payloads).
    ``cached`` marks an outcome served from a
    :class:`~repro.sim.store.RunStore` instead of being executed; by
    the determinism contract its ``result`` is indistinguishable from a
    fresh execution's.  ``infra`` carries structured supervision
    events (quarantines, inline fallbacks) — like ``elapsed`` it is
    metadata, never part of the deterministic payload, and it is empty
    for any replicate that completed normally (even after retries).
    """

    index: int
    ok: bool
    result: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False
    infra: Tuple[Any, ...] = ()


class SweepRunner:
    """Shards seeded replicates across a supervised process pool.

    Args:
        fn: picklable ``spec -> result`` worker (module-level function).
        workers: ``0`` runs in-process (same code path, no pool);
            ``None`` uses ``os.cpu_count()``; otherwise the pool size.
        deadline: per-replicate wall-clock watchdog in seconds; a pool
            worker that blows it is killed and the replicate retried.
            ``None`` disables the hang watchdog (death detection is
            always on).
        retry_policy: bounds infra-fault retries (default
            :class:`~repro.sim.supervise.RetryPolicy`).
        infra_chaos: optional
            :class:`~repro.sim.supervise.InfraChaosConfig` fault
            injection exercising the supervisor itself.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        infra_chaos: Optional[InfraChaosConfig] = None,
    ):
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.fn = fn
        self.workers = workers
        self.deadline = deadline
        self.retry_policy = retry_policy or RetryPolicy()
        self.infra_chaos = infra_chaos
        #: Supervision counters of the most recent :meth:`run`.
        self.last_supervision = SupervisionLog()

    def resolve_workers(self, n_specs: int) -> int:
        """The pool size actually used for ``n_specs`` replicates.

        ``workers=None`` defaults to the CPU count — except on
        single-CPU hosts, where a 1-worker pool is pure pickling/IPC
        overhead over in-process execution, so the default falls back
        to 0 (run in-process).  Passing ``workers=1`` explicitly still
        forces a real pool.
        """
        workers = self.workers
        if workers is None:
            cpu = os.cpu_count() or 1
            workers = cpu if cpu > 1 else 0
        return max(0, min(workers, n_specs))

    def run(
        self, specs: Sequence[Any], resume: Optional[Any] = None
    ) -> List[ReplicateOutcome]:
        """Execute every spec; outcomes ordered by replicate index.

        ``resume`` is an optional
        :class:`~repro.sim.store.ResumeSession`-shaped handle
        (``lookup(spec)`` / ``record(spec, outcome)``): specs with a
        stored outcome are served from the store (marked ``cached``)
        and skipped, everything else executes normally and is
        persisted.  Outcomes are recorded **as they complete**, so an
        interrupted sweep has already flushed every finished replicate
        — resumption then serves the finished work and executes only
        the remainder.  Because replicates are deterministic, the
        aggregated outcome list is byte-identical to an uninterrupted
        run.
        """
        specs = list(specs)
        if not specs:
            return []
        slots: List[Optional[ReplicateOutcome]] = [None] * len(specs)
        pending: List[Tuple[int, Any]] = []
        if resume is None:
            pending = list(enumerate(specs))
        else:
            for index, spec in enumerate(specs):
                cached = resume.lookup(spec)
                if cached is not None:
                    slots[index] = replace(cached, index=index)
                else:
                    pending.append((index, spec))

        def emit(
            index: int, ok: bool, payload: Any, elapsed: float, infra: tuple
        ) -> None:
            outcome = _outcome(index, ok, payload, elapsed, tuple(infra))
            if resume is not None:
                outcome = resume.record(specs[index], outcome)
            slots[index] = outcome

        self.last_supervision = SupervisionLog()
        self._execute(pending, emit)
        return [o for o in slots if o is not None]

    def _execute(
        self,
        pending: Sequence[Tuple[int, Any]],
        emit: Callable[[int, bool, Any, float, tuple], None],
    ) -> None:
        """Run (index, spec) pairs, in-process or under the supervisor."""
        if not pending:
            return
        workers = self.resolve_workers(len(pending))
        if workers == 0:
            # Same emit path as the pool: outcomes land (and persist)
            # one at a time, so an interrupt loses only the replicate
            # in flight.  KeyboardInterrupt propagates to the caller.
            drain_degradations()
            for index, spec in pending:
                start = time.perf_counter()
                try:
                    payload, ok = self.fn(spec), True
                except Exception:
                    payload, ok = traceback.format_exc(), False
                elapsed = time.perf_counter() - start
                emit(index, ok, payload, elapsed, drain_degradations())
            return
        pool = SupervisedPool(
            self.fn,
            workers,
            deadline=self.deadline,
            policy=self.retry_policy,
            infra_chaos=self.infra_chaos,
            log=self.last_supervision,
        )
        pool.run(pending, emit)


def _outcome(
    index: int, ok: bool, payload: Any, elapsed: float, infra: tuple = ()
) -> ReplicateOutcome:
    if ok:
        return ReplicateOutcome(
            index, True, result=payload, elapsed=elapsed, infra=infra
        )
    return ReplicateOutcome(
        index, False, error=payload, elapsed=elapsed, infra=infra
    )


def run_sweep(
    fn: Callable[[Any], Any],
    specs: Sequence[Any],
    workers: Optional[int] = None,
) -> List[ReplicateOutcome]:
    """One-shot :class:`SweepRunner` convenience wrapper."""
    return SweepRunner(fn, workers=workers).run(specs)


def campaign_identity(data: Dict[str, Any]) -> Dict[str, Any]:
    """A campaign description minus its execution policy.

    ``shards``, ``shard_executor`` and ``supervise`` choose how
    replicates execute, never what they compute — payloads are
    byte-identical under every choice — so none may fork the run-store
    key or the provenance digest.
    """
    return {
        k: v
        for k, v in data.items()
        if k not in ("shards", "shard_executor", "supervise")
    }


def run_campaign(
    fn: Callable[[Any], Any],
    kind: str,
    data: Dict[str, Any],
    replicates: int,
    identity: Dict[str, Any],
    base_seed: Optional[int] = None,
    workers: Optional[int] = None,
    store: Optional[Any] = None,
    resume: bool = False,
    retries: int = 0,
    supervision_log: Optional[SupervisionLog] = None,
    **pool_kwargs: Any,
) -> List[ReplicateOutcome]:
    """Fan one description across ``replicates`` derived seeds.

    Replicate ``i`` runs ``fn({"data": data, "seed": s_i})`` with
    ``s_i = replicate_seed(base, i)`` and ``base`` defaulting to the
    description's ``seed`` entry; outcomes come back index-ordered and
    byte-identical for any ``workers`` (:class:`SweepRunner`'s
    contract).

    With a :class:`~repro.sim.RunStore` in ``store``, every outcome is
    persisted as it lands, in the run keyed by ``kind`` plus
    ``{"data": identity, "base_seed": base}``; ``resume=True`` serves
    previously completed replicates from the store (``cached=True``,
    byte-identical payloads) and re-executes crashed ones up to
    ``retries`` extra times.  ``identity`` is the caller's canonical
    form of ``data`` — what the run computes, without how it executes
    (see :func:`campaign_identity`).

    ``pool_kwargs`` (``deadline`` / ``retry_policy`` / ``infra_chaos``)
    configure the supervised pool; a caller-supplied
    ``supervision_log`` absorbs the run's supervision counters even if
    the run is interrupted.
    """
    base = base_seed if base_seed is not None else int(data.get("seed", 0))
    specs = [
        {"data": data, "seed": replicate_seed(base, i)}
        for i in range(replicates)
    ]
    runner = SweepRunner(fn, workers=workers, **pool_kwargs)
    try:
        if store is None:
            return runner.run(specs)
        with store.session(
            kind,
            {"data": identity, "base_seed": base},
            retries=retries,
            resume=resume,
        ) as session:
            return runner.run(specs, resume=session)
    finally:
        if supervision_log is not None:
            supervision_log.absorb(runner.last_supervision)


def sweep_results(outcomes: Sequence[ReplicateOutcome]) -> List[Any]:
    """Unwrap results in replicate order, raising loudly on failures."""
    failures = [o for o in outcomes if not o.ok]
    if failures:
        first = failures[0]
        raise SweepError(
            f"{len(failures)}/{len(outcomes)} replicates failed; "
            f"first failure (replicate {first.index}):\n{first.error}"
        )
    return [o.result for o in outcomes]
