"""Supervised execution: crash-tolerant process workers for sweeps/shards.

The simulated network self-heals (chaos campaigns, root liveness) but
the *simulator infrastructure* was crash-fragile: a SIGKILLed pool
worker killed a whole Monte Carlo sweep, and a dead shard worker left
the coordinator blocked in ``conn.recv()`` forever.  This module is the
supervision layer both process-backed executors run on — the same
adversarial philosophy the protocol already faces, turned on the
machinery that runs it:

* **Checksum frames** — every IPC payload travels as a CRC-32-framed
  pickle (:func:`send_frame` / :func:`recv_frame`), so a truncated or
  corrupted message surfaces as a structured :class:`FrameCorruption`
  instead of a hang or an unpickling crash deep in a worker loop.
* **Structured worker faults** — worker death (pipe ``EOFError`` /
  ``Process.sentinel``) maps to :class:`WorkerDeath`; a per-task
  wall-clock deadline watchdog maps a stalled worker to
  :class:`WorkerHang`.  Nothing infrastructure-shaped is ever a silent
  hang.
* **Bounded retry with deterministic backoff** — faulted work retries
  up to :attr:`RetryPolicy.retries` times with exponential backoff and
  jitter; the whole delay schedule derives from the replicate seed
  (:func:`backoff_delays`), so a retried replicate waits a reproducible
  schedule and — because replicates are seed-deterministic — produces a
  **byte-identical** result.  A run that completes under injected infra
  faults is indistinguishable from the fault-free run.
* **Graceful degradation** — past the retry budget a sweep
  *quarantines* the replicate as a structured failure outcome (the
  sweep completes; the campaign never traceback-crashes) and a sharded
  run falls back ``process -> inline``; both degradations are recorded
  (:func:`note_degradation`) and surfaced in report provenance.
* **Infra fault injection** — :class:`InfraChaosConfig` SIGKILLs a
  worker at replicate/epoch ``k``, stalls it past its deadline, or
  corrupts one reply frame, so the supervisor is exercised by the same
  kind of adversary the chaos campaigns throw at the protocol
  (``repro sweep|chaos --infra-chaos``).

:class:`SupervisedPool` is the sweep-side supervisor (used by
:class:`~repro.sim.parallel.SweepRunner`); the shard-side supervisor
lives in :mod:`repro.sim.shard`'s ``_ProcessExecutor``, built on the
same frame/fault/backoff primitives.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .rng import derive_seed

__all__ = [
    "FrameCorruption",
    "InfraChaosConfig",
    "RetryPolicy",
    "ShardSupervision",
    "SupervisedPool",
    "SupervisionError",
    "SupervisionLog",
    "WorkerDeath",
    "WorkerHang",
    "backoff_delays",
    "check_deadline",
    "drain_degradations",
    "note_degradation",
    "recv_frame",
    "send_frame",
]


# ---------------------------------------------------------------------------
# Structured infrastructure faults
# ---------------------------------------------------------------------------


class SupervisionError(RuntimeError):
    """Base class for structured infrastructure faults."""


class WorkerDeath(SupervisionError):
    """A worker process died (EOF on its pipe / sentinel fired)."""

    def __init__(self, worker: Any, detail: str = ""):
        self.worker = worker
        self.detail = detail
        super().__init__(
            f"worker {worker} died"
            + (f": {detail}" if detail else "")
        )


class WorkerHang(SupervisionError):
    """A worker blew its wall-clock deadline (watchdog fired)."""

    def __init__(self, worker: Any, deadline: float):
        self.worker = worker
        self.deadline = deadline
        super().__init__(
            f"worker {worker} exceeded its {deadline:g}s deadline"
        )


class FrameCorruption(SupervisionError):
    """An IPC frame failed its checksum (truncated/corrupted payload)."""


# ---------------------------------------------------------------------------
# Checksum frames
# ---------------------------------------------------------------------------

_FRAME_HEADER = struct.Struct("<I")


def frame_bytes(obj: Any) -> bytes:
    """Serialise ``obj`` as a CRC-32-framed pickle."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(zlib.crc32(data)) + data


def corrupt_bytes(raw: bytes) -> bytes:
    """Flip one payload byte — the fault :func:`recv_frame` must catch."""
    flipped = bytearray(raw)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


def send_frame(conn, obj: Any, corrupt: bool = False) -> None:
    """Send one checksummed frame (``corrupt=True`` is fault injection)."""
    raw = frame_bytes(obj)
    if corrupt:
        raw = corrupt_bytes(raw)
    conn.send_bytes(raw)


def recv_frame(conn) -> Any:
    """Receive one frame, verifying its checksum.

    Raises ``EOFError``/``OSError`` when the peer is gone (the caller
    maps those to :class:`WorkerDeath`) and :class:`FrameCorruption`
    when the payload is truncated, fails its CRC, or does not unpickle.
    """
    raw = conn.recv_bytes()
    if len(raw) < _FRAME_HEADER.size:
        raise FrameCorruption(f"truncated frame ({len(raw)} bytes)")
    (crc,) = _FRAME_HEADER.unpack(raw[: _FRAME_HEADER.size])
    data = raw[_FRAME_HEADER.size :]
    if zlib.crc32(data) != crc:
        raise FrameCorruption(
            f"checksum mismatch on a {len(raw)}-byte frame"
        )
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise FrameCorruption(f"undecodable frame: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Retry policy and deterministic backoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-exponential-backoff-and-jitter.

    ``retries`` is the number of *extra* attempts after the first
    (``retries=2`` allows three executions total).  Delays grow as
    ``base_delay * 2**k`` capped at ``cap_delay``, each stretched by a
    deterministic jitter factor in ``[1, 1 + jitter]`` drawn from the
    replicate seed — see :func:`backoff_delays`.
    """

    retries: int = 2
    base_delay: float = 0.05
    cap_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0.0 or self.cap_delay < 0.0:
            raise ValueError("backoff delays must be >= 0")
        if self.cap_delay < self.base_delay:
            raise ValueError(
                f"cap_delay {self.cap_delay} < base_delay {self.base_delay}"
            )
        if not 0.0 <= self.jitter:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


def backoff_delays(seed: int, policy: RetryPolicy) -> Tuple[float, ...]:
    """The deterministic backoff schedule for one replicate seed.

    One delay per retry in the policy's budget.  The jitter fraction of
    retry ``k`` derives from ``(seed, "infra.backoff:k")`` with the
    repo-standard SHA-256 scheme, so the schedule is a pure function of
    the replicate seed — stable across machines, processes, and hash
    randomisation, and independent of worker scheduling.
    """
    delays = []
    for k in range(policy.retries):
        base = min(policy.cap_delay, policy.base_delay * (2.0**k))
        unit = (derive_seed(seed, f"infra.backoff:{k}") % (1 << 53)) / float(
            1 << 53
        )
        delays.append(base * (1.0 + policy.jitter * unit))
    return tuple(delays)


def task_seed(spec: Any, index: int) -> int:
    """The seed backoff schedules derive from for one task.

    Sweep specs are ``{"seed": ..., ...}`` dicts; anything else falls
    back to the replicate index (still deterministic per task).
    """
    if isinstance(spec, dict) and "seed" in spec:
        try:
            return int(spec["seed"])
        except (TypeError, ValueError):
            return index
    return index


# ---------------------------------------------------------------------------
# Infrastructure fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfraChaosConfig:
    """Adversarial faults injected into the execution infrastructure.

    ``*_at`` counts *steps*: replicate indices for the sweep pool,
    epoch-advance commands for the shard executor.  Each fault fires at
    most once — on the first (pre-retry) attempt of its step — so a
    supervised run always terminates.  ``stall_seconds`` must exceed
    the supervising deadline for the watchdog to trip.
    """

    kill_at: Optional[int] = None
    kill_worker: int = 0
    stall_at: Optional[int] = None
    stall_worker: int = 0
    stall_seconds: float = 30.0
    corrupt_at: Optional[int] = None
    corrupt_worker: int = 0

    def action(self, worker: int, step: int) -> Optional[str]:
        """The fault (if any) worker ``worker`` injects at ``step``.

        Used by the shard executor, where the worker index (= shard
        index) is meaningful: ``kill@3:1`` kills shard 1 at epoch 3.
        """
        if self.kill_at is not None and (
            step == self.kill_at and worker == self.kill_worker
        ):
            return "kill"
        if self.stall_at is not None and (
            step == self.stall_at and worker == self.stall_worker
        ):
            return "stall"
        if self.corrupt_at is not None and (
            step == self.corrupt_at and worker == self.corrupt_worker
        ):
            return "corrupt"
        return None

    def step_action(self, step: int) -> Optional[str]:
        """The fault (if any) configured for ``step``, any worker.

        Used by the sweep pool, where the replicate index is the
        meaningful key and which worker slot happens to execute it is a
        scheduling accident — ``kill@1`` kills whichever worker runs
        replicate 1 (on its first attempt).
        """
        if self.kill_at is not None and step == self.kill_at:
            return "kill"
        if self.stall_at is not None and step == self.stall_at:
            return "stall"
        if self.corrupt_at is not None and step == self.corrupt_at:
            return "corrupt"
        return None

    def targets_worker(self, worker: int) -> bool:
        """Whether this config injects anything through ``worker``."""
        return (
            (self.kill_at is not None and worker == self.kill_worker)
            or (self.stall_at is not None and worker == self.stall_worker)
            or (
                self.corrupt_at is not None
                and worker == self.corrupt_worker
            )
        )

    @staticmethod
    def parse(text: str) -> "InfraChaosConfig":
        """Parse the CLI syntax: ``kind@step[:worker]``, comma-joined.

        Kinds: ``kill`` (SIGKILL the worker before step ``step``),
        ``stall`` (sleep past the deadline at step ``step``),
        ``corrupt`` (corrupt the reply frame of step ``step``).
        ``worker`` defaults to 0.  Example: ``kill@1,stall@3:1``.
        """
        fields: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, rest = part.partition("@")
                step_text, _, worker_text = rest.partition(":")
                step = int(step_text)
                worker = int(worker_text) if worker_text else 0
            except ValueError as exc:
                raise ValueError(
                    f"bad --infra-chaos entry {part!r}; expected "
                    "kind@step[:worker] (e.g. kill@1, stall@3:1)"
                ) from exc
            if kind not in ("kill", "stall", "corrupt"):
                raise ValueError(
                    f"unknown infra fault {kind!r}; "
                    "expected kill, stall, or corrupt"
                )
            fields[f"{kind}_at"] = step
            fields[f"{kind}_worker"] = worker
        if not fields:
            raise ValueError("empty --infra-chaos spec")
        return InfraChaosConfig(**fields)

    def to_dict(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in InfraChaosConfig.__dataclass_fields__
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "InfraChaosConfig":
        known = set(InfraChaosConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown infra-chaos keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return InfraChaosConfig(**data)


def check_deadline(deadline: Optional[float]) -> Optional[float]:
    """A wall-clock watchdog deadline in seconds, checked: ``None`` (no
    hang watchdog) or finite and > 0.

    The one check for ``--task-deadline``, a file's
    ``supervise.deadline`` and :class:`SupervisedPool`: a NaN would
    switch the watchdog off unseen, and a deadline <= 0 would count
    every command as hung at once.
    """
    if deadline is None:
        return None
    deadline = float(deadline)
    if not 0.0 < deadline < math.inf:
        raise ValueError(f"deadline must be finite and > 0, got {deadline}")
    return deadline


@dataclass(frozen=True)
class ShardSupervision:
    """Supervision knobs for the sharded process executor.

    ``deadline`` is the per-command (epoch/boot/query) wall-clock
    watchdog in seconds; ``None`` disables the hang watchdog (worker
    *death* is always detected).  ``policy`` bounds respawn attempts;
    ``fallback_inline`` degrades the campaign to the in-process
    executor once the budget is exhausted instead of raising.
    """

    deadline: Optional[float] = None
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    infra_chaos: Optional[InfraChaosConfig] = None
    fallback_inline: bool = True

    @staticmethod
    def from_dict(data: Optional[Dict[str, Any]]) -> "ShardSupervision":
        if not data:
            return ShardSupervision()
        known = {"deadline", "retries", "infra_chaos", "fallback_inline"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown supervise keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        chaos = data.get("infra_chaos")
        return ShardSupervision(
            deadline=check_deadline(data.get("deadline")),
            policy=RetryPolicy(retries=int(data.get("retries", 2))),
            infra_chaos=(
                InfraChaosConfig.from_dict(chaos)
                if isinstance(chaos, dict)
                else chaos
            ),
            fallback_inline=bool(data.get("fallback_inline", True)),
        )


# ---------------------------------------------------------------------------
# Supervision log + degradation channel
# ---------------------------------------------------------------------------


class SupervisionLog:
    """Counters and degradation events from one supervised run.

    Counters (deaths, hangs, retries, respawns) are wall-clock
    metadata: a fully recovered run reports them on stdout but never in
    the deterministic payload.  Degradations (quarantined replicates,
    inline fallbacks) change what the run *delivers* and are surfaced
    in report provenance.
    """

    def __init__(self) -> None:
        self.worker_deaths = 0
        self.hangs = 0
        self.corrupt_frames = 0
        self.retries = 0
        self.respawns = 0
        self.quarantined: List[int] = []
        self.fallbacks: List[Any] = []

    def absorb(self, other: "SupervisionLog") -> None:
        """Merge another log's counters/events into this one."""
        self.worker_deaths += other.worker_deaths
        self.hangs += other.hangs
        self.corrupt_frames += other.corrupt_frames
        self.retries += other.retries
        self.respawns += other.respawns
        self.quarantined.extend(other.quarantined)
        self.fallbacks.extend(other.fallbacks)

    def note_fault(self, fault: SupervisionError) -> None:
        if isinstance(fault, WorkerHang):
            self.hangs += 1
        elif isinstance(fault, FrameCorruption):
            self.corrupt_frames += 1
        else:
            self.worker_deaths += 1

    @property
    def faults(self) -> int:
        return self.worker_deaths + self.hangs + self.corrupt_frames

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined or self.fallbacks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker_deaths": self.worker_deaths,
            "hangs": self.hangs,
            "corrupt_frames": self.corrupt_frames,
            "retries": self.retries,
            "respawns": self.respawns,
            "quarantined": list(self.quarantined),
            "fallbacks": list(self.fallbacks),
        }

    def summary(self) -> str:
        """One human line for the CLI (empty when nothing happened)."""
        if not (self.faults or self.degraded):
            return ""
        parts = [
            f"{self.worker_deaths} worker death(s)",
            f"{self.hangs} hang(s)",
            f"{self.corrupt_frames} corrupt frame(s)",
            f"{self.retries} retried",
        ]
        if self.quarantined:
            parts.append(f"quarantined replicates {self.quarantined}")
        if self.fallbacks:
            parts.append(f"inline fallback {self.fallbacks}")
        return "infra: " + ", ".join(parts)


#: Degradation events raised *inside* a replicate (e.g. a sharded
#: simulation falling back to the inline executor deep in a worker
#: function).  The executing layer — pool worker or in-process runner —
#: drains this after each task and ships the notes on the outcome, so
#: the CLI can surface them in provenance no matter where they happened.
_DEGRADATIONS: List[Dict[str, Any]] = []


def note_degradation(event: Dict[str, Any]) -> None:
    """Record a degradation event for the current task's outcome."""
    _DEGRADATIONS.append(dict(event))


def drain_degradations() -> Tuple[Dict[str, Any], ...]:
    """Collect-and-clear the degradation notes of the current task."""
    out = tuple(_DEGRADATIONS)
    _DEGRADATIONS.clear()
    return out


# ---------------------------------------------------------------------------
# The supervised sweep pool
# ---------------------------------------------------------------------------


def _pool_worker_main(conn, fn, worker_index: int, chaos) -> None:
    """Worker-process loop: run tasks, inject configured infra faults.

    SIGINT is ignored so a terminal Ctrl-C interrupts only the
    supervisor, which flushes completed outcomes and shuts workers
    down deliberately.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Forked workers inherit any SIGTERM handler the CLI installed for
        # graceful shutdown; reset it so terminate() ends them silently.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        while True:
            try:
                msg = recv_frame(conn)
            except (EOFError, OSError):
                return
            if msg[0] == "stop":
                return
            _, index, spec, attempt = msg
            corrupt = False
            if chaos is not None and attempt == 0:
                action = chaos.step_action(index)
                if action == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif action == "stall":
                    time.sleep(chaos.stall_seconds)
                elif action == "corrupt":
                    corrupt = True
            start = time.perf_counter()
            try:
                payload, ok = fn(spec), True
            except Exception:
                payload, ok = traceback.format_exc(), False
            elapsed = time.perf_counter() - start
            try:
                send_frame(
                    conn,
                    (
                        "done",
                        index,
                        ok,
                        payload,
                        elapsed,
                        drain_degradations(),
                    ),
                    corrupt=corrupt,
                )
            except (BrokenPipeError, OSError):
                return
    finally:
        conn.close()


class _Task:
    """Supervisor-side state of one replicate."""

    __slots__ = ("index", "spec", "attempts", "not_before", "delays",
                 "last_fault")

    def __init__(self, index: int, spec: Any, policy: RetryPolicy):
        self.index = index
        self.spec = spec
        self.attempts = 0
        self.not_before = 0.0
        self.delays = backoff_delays(task_seed(spec, index), policy)
        self.last_fault: Optional[str] = None


class _Worker:
    """One supervised worker process slot."""

    __slots__ = ("slot", "proc", "conn", "task")

    def __init__(self, slot: int):
        self.slot = slot
        self.proc = None
        self.conn = None
        self.task: Optional[_Task] = None


def stop_process(proc, grace: float = 2.0) -> None:
    """Terminate -> join -> escalate to SIGKILL -> join.

    The shutdown discipline every supervised executor shares: never
    leave a zombie, never block forever on a wedged worker.
    """
    if proc is None or not proc.is_alive():
        if proc is not None:
            proc.join(timeout=grace)
        return
    proc.terminate()
    proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=grace)


class SupervisedPool:
    """Crash-tolerant replacement for the sweep's bare process pool.

    Dispatches ``(index, spec)`` tasks one at a time to ``workers``
    supervised processes.  Worker death, hang (past ``deadline``
    seconds), and corrupt reply frames are detected, charged to the
    in-flight task, and retried on a respawned worker under the
    deterministic backoff schedule; past the budget the task is
    *quarantined* as a structured failure and the sweep keeps going.

    Results are delivered through the ``emit(index, ok, payload,
    elapsed, infra)`` callback **as they land**, so a caller persisting
    outcomes (the run store) has flushed everything completed even if
    the sweep is interrupted.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        workers: int,
        deadline: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        infra_chaos: Optional[InfraChaosConfig] = None,
        log: Optional[SupervisionLog] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.fn = fn
        self.workers = workers
        self.deadline = check_deadline(deadline)
        self.policy = policy or RetryPolicy()
        self.infra_chaos = infra_chaos
        self.log = log if log is not None else SupervisionLog()
        self._ctx = self._mp_context()

    @staticmethod
    def _mp_context():
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        return (
            multiprocessing.get_context("fork")
            if "fork" in methods
            else multiprocessing.get_context()
        )

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent, child = self._ctx.Pipe()
        chaos = self.infra_chaos
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child, self.fn, worker.slot, chaos),
            daemon=True,
        )
        proc.start()
        child.close()
        worker.proc = proc
        worker.conn = parent

    def _discard(self, worker: _Worker) -> None:
        stop_process(worker.proc)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        worker.proc = None
        worker.conn = None
        worker.task = None

    # -- the supervision loop ------------------------------------------

    def run(
        self,
        pending: Sequence[Tuple[int, Any]],
        emit: Callable[[int, bool, Any, float, tuple], None],
    ) -> None:
        """Execute every task, emitting outcomes as they complete."""
        from multiprocessing.connection import wait as _mp_wait

        tasks = [_Task(i, spec, self.policy) for i, spec in pending]
        if not tasks:
            return
        ready: List[_Task] = list(reversed(tasks))  # pop() = lowest index
        waiting: List[_Task] = []  # backoff purgatory
        remaining = len(tasks)
        deadlines: Dict[int, float] = {}  # worker slot -> monotonic limit
        workers = [
            _Worker(slot) for slot in range(min(self.workers, len(tasks)))
        ]
        try:
            for worker in workers:
                self._spawn(worker)
            while remaining > 0:
                now = time.monotonic()
                if waiting:
                    still = []
                    for task in waiting:
                        if task.not_before <= now:
                            ready.append(task)
                        else:
                            still.append(task)
                    waiting[:] = still
                    ready.sort(key=lambda t: -t.index)
                for worker in workers:
                    if worker.task is None and ready:
                        self._dispatch(worker, ready.pop(), deadlines)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    # Everything unfinished is in backoff: sleep to the
                    # earliest retry instant.
                    pause = min(t.not_before for t in waiting) - now
                    time.sleep(max(0.0, pause))
                    continue
                timeout = self._wait_timeout(busy, waiting, deadlines, now)
                waitables: List[Any] = []
                owner: Dict[Any, _Worker] = {}
                for worker in busy:
                    waitables.append(worker.conn)
                    owner[worker.conn] = worker
                    waitables.append(worker.proc.sentinel)
                    owner[worker.proc.sentinel] = worker
                fired = _mp_wait(waitables, timeout)
                handled = set()
                for obj in fired:
                    worker = owner[obj]
                    if worker.slot in handled:
                        continue
                    handled.add(worker.slot)
                    remaining -= self._service(
                        worker, emit, waiting, deadlines
                    )
                now = time.monotonic()
                for worker in busy:
                    if worker.slot in handled or worker.task is None:
                        continue
                    limit = deadlines.get(worker.slot)
                    if limit is not None and now >= limit:
                        remaining -= self._fault(
                            worker,
                            WorkerHang(worker.slot, self.deadline or 0.0),
                            emit,
                            waiting,
                            deadlines,
                        )
        finally:
            self._shutdown(workers)

    def _dispatch(
        self, worker: _Worker, task: _Task, deadlines: Dict[int, float]
    ) -> None:
        worker.task = task
        if self.deadline is not None:
            deadlines[worker.slot] = time.monotonic() + self.deadline
        try:
            send_frame(
                worker.conn, ("task", task.index, task.spec, task.attempts)
            )
        except (BrokenPipeError, OSError):
            # The worker is already gone; the supervision loop will see
            # its sentinel and charge the fault to this task.
            pass

    def _wait_timeout(
        self,
        busy: Sequence[_Worker],
        waiting: Sequence[_Task],
        deadlines: Dict[int, float],
        now: float,
    ) -> Optional[float]:
        horizons = [
            deadlines[w.slot] for w in busy if w.slot in deadlines
        ]
        horizons.extend(t.not_before for t in waiting)
        if not horizons:
            return None
        return max(0.0, min(horizons) - now) + 0.005

    def _service(
        self,
        worker: _Worker,
        emit,
        waiting: List[_Task],
        deadlines: Dict[int, float],
    ) -> int:
        """Read one reply (or death) from a worker; returns tasks closed."""
        try:
            if worker.conn.poll(0):
                msg = recv_frame(worker.conn)
            elif not worker.proc.is_alive():
                raise WorkerDeath(worker.slot, "process exited")
            else:  # pragma: no cover - spurious wakeup
                return 0
        except FrameCorruption as exc:
            return self._fault(worker, exc, emit, waiting, deadlines)
        except WorkerDeath as exc:
            return self._fault(worker, exc, emit, waiting, deadlines)
        except (EOFError, OSError):
            return self._fault(
                worker,
                WorkerDeath(worker.slot, "pipe closed"),
                emit,
                waiting,
                deadlines,
            )
        if msg[0] != "done":  # pragma: no cover - protocol invariant
            return self._fault(
                worker,
                FrameCorruption(f"unexpected reply {msg[0]!r}"),
                emit,
                waiting,
                deadlines,
            )
        _, index, ok, payload, elapsed, infra = msg
        task = worker.task
        worker.task = None
        deadlines.pop(worker.slot, None)
        assert task is not None and task.index == index, (task, index)
        emit(index, ok, payload, elapsed, tuple(infra))
        return 1

    def _fault(
        self,
        worker: _Worker,
        fault: SupervisionError,
        emit,
        waiting: List[_Task],
        deadlines: Dict[int, float],
    ) -> int:
        """Charge an infra fault to the in-flight task; respawn the slot."""
        task = worker.task
        self.log.note_fault(fault)
        deadlines.pop(worker.slot, None)
        self._discard(worker)
        self._spawn(worker)
        self.log.respawns += 1
        if task is None:  # pragma: no cover - idle worker died
            return 0
        task.attempts += 1
        task.last_fault = type(fault).__name__
        if task.attempts <= self.policy.retries:
            self.log.retries += 1
            delay = task.delays[task.attempts - 1]
            task.not_before = time.monotonic() + delay
            waiting.append(task)
            return 0
        # Budget exhausted: quarantine the replicate as a structured
        # failure — the sweep completes, the campaign never crashes.
        self.log.quarantined.append(task.index)
        note = {
            "kind": "quarantined_replicate",
            "index": task.index,
            "attempts": task.attempts,
            "fault": task.last_fault,
        }
        emit(
            task.index,
            False,
            (
                f"infra fault: replicate {task.index} lost its worker "
                f"{task.attempts} time(s) "
                f"(last: {fault}); retry budget "
                f"({self.policy.retries}) exhausted — quarantined"
            ),
            0.0,
            (note,),
        )
        return 1

    def _shutdown(self, workers: Sequence[_Worker]) -> None:
        for worker in workers:
            if worker.conn is not None:
                try:
                    send_frame(worker.conn, ("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in workers:
            self._discard(worker)
