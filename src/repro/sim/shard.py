"""Spatially sharded conservative-parallel simulation.

Partitions the deployment plane into per-worker *regions* aligned to
hex-cell stripes (contiguous intervals of the fractional axial ``q``
coordinate of the IL lattice), runs each region on its own
:class:`~repro.sim.engine.Simulator` (one-shot heap + timer wheel), and
synchronises conservatively at epoch barriers whose width is bounded by
the channel **lookahead** ``L = hop_latency`` — every transmission costs
at least one hop plus a non-negative fault jitter, so an event executed
at time ``t`` can only influence another node at ``t + L`` or later.

Determinism contract (pinned by ``tests/sim/test_shard.py``):

* A run at ``shards=N`` is **byte-identical** — same ``state_digest``,
  same trace-record multiset, same chaos verdicts — to the in-process
  run of the same scenario (``Gs3DynamicSimulation``), for any ``N``
  and for both the in-process round-robin executor and the
  process-pool executor.  ``shards`` is execution policy, like
  ``workers``: it never enters a scenario's identity.
* Equal-time events are ordered by ``(time, (origin_lane, origin_seq))``
  keys (the lane namespaces are defined in :mod:`repro.sim.engine`).
  A node's lane is its id; every radio delivery claims one key from
  the sender's lane in canonical (ascending receiver id) candidate
  order, whether the destination is local or remote, so lane counters
  advance identically at every shard count.
* Channel-fault draws use per-sender streams
  (``radio.loss.<sender>`` …) drawn at *send* time, so fault outcomes
  do not depend on which shard hosts the receiver.
* Every shard constructs its RNG as ``RngStreams(master_seed)`` — the
  per-node streams (``node.<id>``, ``location.<id>``) must be identical
  no matter which shard owns the node.  ``shard_seed`` derives an
  auxiliary per-region seed in the ``replicate_seed`` style for
  shard-local needs outside the protocol trajectory.
* Driver operations (perturbations, packet injections) run at epoch
  barriers, op ``k`` in lane ``DRIVER_BASE + k`` after every event at
  its time, with its same-time follow-ups finishing before op ``k+1``
  — the in-process driver's rule (:meth:`Simulator.apply`).  Both
  drivers run the ops of one table (:mod:`repro.core.driver_ops`).

Only nodes within ``max_range`` of a region border are mirrored into
the neighbouring shards' ``Network`` views; mirrors carry physical
state only (position, liveness, range) and never run node programs.
Cross-boundary radio deliveries are the only inter-shard events; they
are exchanged at barriers and injected with their pre-claimed keys.
The HEAD_ORG channel mediator (:class:`~repro.net.channel.ChannelMediator`)
lives at the coordinator; requests and releases reach it one
lookahead after they are made, and its grants come back as barrier
injections.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import os
import signal
import time as _wall
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.driver_ops import (
    DRIVER_OPS,
    PacketOps,
    PerturbationOps,
    default_corruption,
)
from .engine import DRIVER_BASE, SimulationError, Simulator
from .rng import RngStreams, derive_seed
from .supervise import (
    FrameCorruption,
    ShardSupervision,
    SupervisionError,
    SupervisionLog,
    WorkerDeath,
    WorkerHang,
    backoff_delays,
    note_degradation,
    recv_frame,
    send_frame,
)
from .tracing import TraceRecord, Tracer

__all__ = [
    "ShardedSimulation",
    "ShardError",
    "plan_partition",
    "shard_seed",
]

class ShardError(RuntimeError):
    """Raised for operations a sharded run cannot support."""


def shard_seed(master_seed: int, region_index: int) -> int:
    """Auxiliary per-region seed, ``replicate_seed``-style.

    Derived as ``SHA-256(master_seed, "shard:<region>")`` so it is
    independent of worker scheduling.  *Not* used for protocol RNG
    streams — those must come from the master seed directly so a node's
    streams are identical at every shard count (see module docstring).
    """
    return derive_seed(master_seed, f"shard:{region_index}")


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A plane partition into ``q``-stripes of the IL lattice.

    ``boundaries`` are the ``shards - 1`` cut points in fractional-``q``
    space; stripe ``s`` covers ``(boundaries[s-1], boundaries[s]]``
    (±inf at the ends).  ``margin`` is the mirror half-width in ``q``
    units: a node within ``margin`` of a stripe is mirrored into it.
    """

    shards: int
    boundaries: Tuple[float, ...]
    margin: float

    def owner_of(self, q: float) -> int:
        """Stripe index owning fractional coordinate ``q``."""
        return bisect.bisect_left(self.boundaries, q)

    def stripes_near(self, q: float) -> List[int]:
        """All stripe indices within ``margin`` of ``q`` (owner first)."""
        owner = self.owner_of(q)
        result = [owner]
        lo = owner - 1
        while lo >= 0 and q - self.boundaries[lo] <= self.margin:
            result.append(lo)
            lo -= 1
        hi = owner
        while (
            hi < self.shards - 1 and self.boundaries[hi] - q <= self.margin
        ):
            result.append(hi + 1)
            hi += 1
        return result


def plan_partition(lattice, positions: Sequence, shards: int,
                   max_range: float) -> Partition:
    """Count-balanced ``q``-stripe partition of the given positions.

    Cut points are midpoints between adjacent order statistics of the
    nodes' fractional ``q`` coordinates, so each stripe owns roughly
    ``len(positions) / shards`` nodes regardless of the deployment
    shape.  The mirror margin converts ``max_range`` to ``q`` units via
    the (constant) gradient of the affine ``fractional_axial`` map,
    padded 1% against float noise.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    origin_q = lattice.fractional_axial(lattice.origin)[0]
    unit_x = lattice.fractional_axial(
        type(lattice.origin)(lattice.origin.x + 1.0, lattice.origin.y)
    )[0] - origin_q
    unit_y = lattice.fractional_axial(
        type(lattice.origin)(lattice.origin.x, lattice.origin.y + 1.0)
    )[0] - origin_q
    q_gradient = math.hypot(unit_x, unit_y)
    margin = q_gradient * max_range * 1.01 + 1e-9
    qs = sorted(lattice.fractional_axial(p)[0] for p in positions)
    boundaries: List[float] = []
    n = len(qs)
    for k in range(1, shards):
        i = (k * n) // shards
        if i <= 0 or i >= n:
            # Degenerate (fewer nodes than shards): empty stripes are
            # legal — their simulators simply idle.
            boundaries.append(qs[-1] + k if n else float(k))
        else:
            boundaries.append((qs[i - 1] + qs[i]) / 2.0)
    return Partition(
        shards=shards, boundaries=tuple(boundaries), margin=margin
    )


# ---------------------------------------------------------------------------
# Shard-side runtime
# ---------------------------------------------------------------------------


class _ShardPort:
    """Radio port: decides delivery locality, collects cross traffic.

    A delivery is local when the shard runs the receiver's program
    (``nodes`` is the runtime's program table).
    """

    __slots__ = ("nodes", "outbox")

    def __init__(self, nodes: Dict[int, Any], outbox: List[tuple]):
        self.nodes = nodes
        self.outbox = outbox

    def is_local(self, dest_id: int) -> bool:
        return dest_id in self.nodes

    def send_delivery(self, arrival, key, sender_id, dest_id, payload):
        self.outbox.append(
            ("deliver", arrival, key, sender_id, dest_id, payload)
        )


_NODE_KINDS = ("static", "dynamic")


@dataclass
class ShardSpec:
    """Plain-data recipe for constructing one shard's runtime.

    Picklable so the process-pool executor can ship it to workers.
    """

    index: int
    config: Any  # GS3Config (frozen dataclass, picklable)
    deployment_spec: Dict[str, Any]
    seed: int
    channel: Any  # Optional[ChannelFaultConfig]
    node_kind: str
    keep_trace_records: bool
    max_events: Optional[int]
    owned: Tuple[int, ...]
    mirrors: Tuple[int, ...]


class ShardWorker:
    """One region's full protocol runtime behind a message interface.

    Used directly by the inline executor and inside worker processes by
    the pool executor — the coordinator talks to both through the same
    call surface, which is what makes the two executors bit-identical.
    """

    def __init__(self, spec: ShardSpec):
        from ..core.gs3d import Gs3DynamicNode
        from ..core.gs3s import Gs3StaticNode
        from ..core.runtime import Gs3Runtime
        from ..geometry import HexLattice
        from ..net import ChannelReservations, Radio, deployment_from_spec

        if spec.node_kind not in _NODE_KINDS:
            raise ShardError(f"unsupported node kind {spec.node_kind!r}")
        self.spec = spec
        self.node_class = (
            Gs3DynamicNode if spec.node_kind == "dynamic" else Gs3StaticNode
        )
        config = spec.config
        deployment = deployment_from_spec(
            spec.deployment_spec, RngStreams(spec.seed)
        )
        network = deployment.build_network(
            max_range=config.recommended_max_range
        )
        keep = set(spec.owned) | set(spec.mirrors)
        for node_id in network.node_ids():
            if node_id not in keep:
                network.remove_node(node_id)
        self.outbox: List[tuple] = []
        sim = Simulator()
        if spec.max_events is not None:
            sim.max_events = spec.max_events
        tracer = Tracer(keep_records=spec.keep_trace_records)
        rng = RngStreams(spec.seed)
        radio = Radio(
            network,
            sim,
            tracer=tracer,
            rng=rng,
            broadcast_loss=config.broadcast_loss,
            hop_latency=config.hop_latency,
            faults=(
                spec.channel.build(rng) if spec.channel is not None else None
            ),
        )
        self.channel = ChannelReservations(sim, self.outbox.append)
        lattice = HexLattice(
            origin=deployment.big_position,
            spacing=config.lattice_spacing,
            orientation=config.gr_orientation,
        )
        self.runtime = Gs3Runtime(
            config=config,
            sim=sim,
            network=network,
            radio=radio,
            channel=self.channel,
            tracer=tracer,
            rng=rng,
            lattice=lattice,
        )
        radio.shard_port = _ShardPort(self.runtime.nodes, self.outbox)
        self.sim = sim
        self._started = False
        for node_id in sorted(spec.owned):
            self.node_class(self.runtime, node_id)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> Optional[float]:
        if not self._started:
            self._started = True
            for node_id in sorted(self.runtime.nodes):
                self.sim.set_lane(node_id)
                self.runtime.nodes[node_id].start()
            self.sim.set_lane(None)
        return self.sim.next_event_time()

    def advance(
        self, until: float, injections: Sequence[tuple]
    ) -> Tuple[List[tuple], Optional[float]]:
        """Inject barrier traffic, run to ``until``, drain the outbox."""
        self._inject(injections)
        self.sim.run(until=until)
        return self._drain()

    def apply_ops(
        self, ops: Sequence[Tuple[int, Tuple[str, tuple]]]
    ) -> Tuple[List[tuple], Optional[float]]:
        """Run ``(lane, (kind, desc))`` driver ops from
        :data:`~repro.core.driver_ops.DRIVER_OPS` at the barrier time,
        one after another."""
        for lane, (kind, desc) in ops:
            self.sim.apply(lane, partial(DRIVER_OPS[kind], self, desc))
        return self._drain()

    def _drain(self) -> Tuple[List[tuple], Optional[float]]:
        out = self.outbox[:]
        self.outbox.clear()
        return out, self.sim.next_event_time()

    # -- barrier injections --------------------------------------------

    def _inject(self, injections: Sequence[tuple]) -> None:
        """Schedule one barrier's deliveries and channel grants.

        Deliveries come in claim order, a send's consecutively, so each
        stretch from one sender is scheduled as one delivery run.
        """
        radio = self.runtime.radio
        run: List[tuple] = []
        sender = None
        for item in injections:
            kind = item[0]
            if kind == "deliver":
                _, time, key, sender_id, dest_id, payload = item
                if sender_id != sender:
                    radio.schedule_run(sender, run, False)
                    run = []
                    sender = sender_id
                run.append((time, key, dest_id, payload))
            elif kind == "grant":
                _, time, key, lease_id = item
                self.channel.grant(time, key, lease_id)
            else:  # pragma: no cover - defensive
                raise ShardError(f"unknown injection {kind!r}")
        radio.schedule_run(sender, run, False)

    # -- queries --------------------------------------------------------

    def query(self, what: str, arg: Any = None) -> Any:
        tracer = self.runtime.tracer
        if what == "next_time":
            return self.sim.next_event_time()
        if what == "trace_last":
            return tracer.last_time(*arg)
        if what == "count":
            return tracer.count(arg)
        if what == "counts":
            return dict(tracer.counts)
        if what == "last_by_category":
            return dict(tracer.last_time_by_category)
        if what == "records":
            return list(tracer.records)
        if what == "pending":
            return self.sim.pending_events
        if what == "executed":
            return self.sim.executed_events
        if what == "faults":
            faults = self.runtime.radio.faults
            if faults is None:
                return (0, 0)
            return (faults.jam_drops, faults.loss_drops)
        if what == "set_max_events":
            self.sim.max_events = arg
            return None
        if what == "traffic":
            plane = self.runtime.radio.data_plane
            if plane is None:
                return ({}, (), {})
            return (
                dict(plane.terminals),
                tuple(plane.hop_log.entries()),
                dict(plane.relay_load),
            )
        if what == "snapshot":
            from ..core.snapshot import node_view

            views = {
                node_id: node_view(self.runtime, node_id)
                for node_id in sorted(self.runtime.nodes)
            }
            gaps = set()
            for node in self.runtime.nodes.values():
                gaps |= getattr(node, "gap_axials", set())
            return views, gaps
        raise ShardError(f"unknown query {what!r}")


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class _InlineExecutor:
    """Sequential round-robin over in-process workers.

    The reference merge discipline: the pool executor must be
    bit-identical to this, and this at ``shards=1`` anchors the whole
    determinism contract.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        supervision: Optional[ShardSupervision] = None,
    ):
        # ``supervision`` is accepted for executor-signature uniformity;
        # an in-process worker cannot die or hang independently.
        self._specs = specs
        self._workers: List[ShardWorker] = []
        self.log = SupervisionLog()

    def boot(self) -> None:
        self._workers = [ShardWorker(spec) for spec in self._specs]

    def start_all(self) -> List[Optional[float]]:
        return [worker.start() for worker in self._workers]

    def advance_all(
        self, until: float, injections: Sequence[Sequence[tuple]]
    ) -> List[Tuple[List[tuple], Optional[float]]]:
        return [
            worker.advance(until, injections[i])
            for i, worker in enumerate(self._workers)
        ]

    def apply_ops(
        self, targets: Sequence[Tuple[int, Sequence[tuple]]]
    ) -> List[Tuple[List[tuple], Optional[float]]]:
        return [self._workers[shard].apply_ops(ops) for shard, ops in targets]

    def query_all(self, what: str, arg: Any = None) -> List[Any]:
        return [worker.query(what, arg) for worker in self._workers]

    def query(self, shard: int, what: str, arg: Any = None) -> Any:
        return self._workers[shard].query(what, arg)

    def close(self) -> None:
        self._workers = []


def _shard_worker_main(conn, spec: ShardSpec, chaos=None) -> None:
    """Worker-process loop: construct the shard, serve the pipe.

    Messages travel as checksummed frames
    (:func:`~repro.sim.supervise.send_frame`).  ``chaos`` is an
    optional :class:`~repro.sim.supervise.InfraChaosConfig`: before
    executing epoch-advance ``k`` this worker injects the configured
    fault for ``(shard_index, k)`` — SIGKILL itself, stall, or corrupt
    the reply frame.  Respawned workers always run with ``chaos=None``
    (journal replay would otherwise re-trigger the fault forever).
    SIGINT is ignored: on Ctrl-C the coordinator shuts shards down
    deliberately after flushing completed work.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Forked workers inherit any SIGTERM handler the CLI installed for
        # graceful shutdown; reset it so terminate() ends them silently.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        worker = ShardWorker(spec)
        send_frame(conn, ("ok", None))
    except BaseException as exc:  # construction failure
        try:
            send_frame(conn, ("err", f"shard {spec.index} boot: {exc!r}"))
        finally:
            conn.close()
        return
    epoch = 0
    try:
        while True:
            msg = recv_frame(conn)
            cmd = msg[0]
            if cmd == "stop":
                break
            corrupt = False
            if cmd == "advance":
                if chaos is not None:
                    action = chaos.action(spec.index, epoch)
                    if action == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    elif action == "stall":
                        _wall.sleep(chaos.stall_seconds)
                    elif action == "corrupt":
                        corrupt = True
                epoch += 1
            try:
                if cmd == "start":
                    reply = worker.start()
                elif cmd == "advance":
                    reply = worker.advance(msg[1], msg[2])
                elif cmd == "apply_ops":
                    reply = worker.apply_ops(msg[1])
                elif cmd == "query":
                    reply = worker.query(msg[1], msg[2])
                else:
                    raise ShardError(f"unknown command {cmd!r}")
                send_frame(conn, ("ok", reply), corrupt=corrupt)
            except BaseException as exc:
                send_frame(conn, ("err", f"shard {spec.index} {cmd}: {exc!r}"))
    except (EOFError, OSError, FrameCorruption):
        # Coordinator gone (or sent garbage): nothing to report to.
        pass
    finally:
        conn.close()


#: Replies to journaled commands can be re-derived by replay; replies to
#: anything else must be re-requested after a respawn.
_MUTATING_QUERIES = frozenset({"set_max_events"})


class _ProcessExecutor:
    """One forked worker process per shard, supervised over pipes.

    Commands fan out to every worker they target (every shard for an
    epoch advance, the carriers of a node for a driver op) before any
    reply is collected, so those shards work concurrently; replies are
    merged in target order, which keeps the coordinator's view
    identical to the inline executor's.

    Supervision (see :mod:`repro.sim.supervise` and DESIGN.md § 10): a
    dead shard worker surfaces as a structured fault instead of a hung
    ``recv`` — pipe EOF / ``Process.sentinel`` maps to ``WorkerDeath``,
    a blown per-command deadline to ``WorkerHang``, a bad checksum to
    ``FrameCorruption``.  Faults happen *at a barrier* (the coordinator
    only ever waits on a shard between commands), so recovery respawns
    the worker from its picklable :class:`ShardSpec` and replays the
    journal of state-mutating commands — shard workers are
    deterministic functions of ``(spec, command sequence)``, so the
    rebuilt worker is in exactly the pre-fault state and the run's
    trajectory is byte-identical to a fault-free one.  Past the retry
    budget the whole campaign degrades to the in-process executor
    (``fallback_inline``) or raises a :class:`ShardError` naming the
    shard.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        supervision: Optional[ShardSupervision] = None,
    ):
        self._specs = list(specs)
        self._supervision = supervision or ShardSupervision()
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._journals: List[List[tuple]] = [[] for _ in self._specs]
        self._delay_cache: Dict[int, Tuple[float, ...]] = {}
        self._inline: Optional[_InlineExecutor] = None
        self._fallback_replies: Dict[int, Any] = {}
        self._ctx = None
        self.log = SupervisionLog()

    # -- worker lifecycle ----------------------------------------------

    def boot(self) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self._procs = [None] * len(self._specs)
        self._conns = [None] * len(self._specs)
        chaos = self._supervision.infra_chaos
        for shard in range(len(self._specs)):
            self._spawn(
                shard,
                chaos
                if chaos is not None and chaos.targets_worker(shard)
                else None,
            )
        try:
            for shard in range(len(self._specs)):
                self._finish(shard, None, journal=True)
        except ShardError:
            self.close()
            raise

    def _spawn(self, shard: int, chaos) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child, self._specs[shard], chaos),
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[shard] = proc
        self._conns[shard] = parent

    def _stop_worker(self, shard: int) -> None:
        from .supervise import stop_process

        stop_process(self._procs[shard])
        conn = self._conns[shard]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._procs[shard] = None
        self._conns[shard] = None

    # -- supervised exchange -------------------------------------------

    def _send(self, shard: int, msg: tuple) -> None:
        try:
            send_frame(self._conns[shard], msg)
        except (BrokenPipeError, OSError):
            # Worker already dead; the supervised recv maps it to a
            # structured WorkerDeath.
            pass

    def _recv_supervised(self, shard: int) -> Any:
        """One frame from ``shard``, or a structured fault — never a hang."""
        from multiprocessing.connection import wait as _mp_wait

        conn = self._conns[shard]
        proc = self._procs[shard]
        deadline = self._supervision.deadline
        limit = None if deadline is None else _wall.monotonic() + deadline
        while True:
            timeout = (
                None
                if limit is None
                else max(0.0, limit - _wall.monotonic())
            )
            fired = _mp_wait([conn, proc.sentinel], timeout)
            if not fired:
                raise WorkerHang(shard, deadline)
            if conn in fired:
                try:
                    return recv_frame(conn)
                except (EOFError, OSError):
                    raise WorkerDeath(shard, "pipe closed") from None
            # Sentinel fired: the process exited.  Data may still be
            # buffered in the pipe — drain it before declaring death.
            if conn.poll(0):
                continue
            raise WorkerDeath(shard, "process exited")

    @staticmethod
    def _unwrap(reply: Tuple[str, Any]) -> Any:
        status, payload = reply
        if status != "ok":
            raise ShardError(payload)
        return payload

    def _delays(self, shard: int) -> Tuple[float, ...]:
        if shard not in self._delay_cache:
            self._delay_cache[shard] = backoff_delays(
                derive_seed(self._specs[shard].seed, f"shard-respawn:{shard}"),
                self._supervision.policy,
            )
        return self._delay_cache[shard]

    def _respawn_and_replay(self, shard: int) -> Any:
        """Rebuild a lost shard worker and replay its journal.

        Returns the reply of the last journaled command (or the boot
        handshake's when the journal is empty).  Raises
        :class:`SupervisionError` if the replacement worker faults too.
        """
        self._spawn(shard, chaos=None)
        self.log.respawns += 1
        reply = self._unwrap(self._recv_supervised(shard))  # handshake
        for msg in self._journals[shard]:
            self._send(shard, msg)
            reply = self._unwrap(self._recv_supervised(shard))
        return reply

    def _finish(self, shard: int, msg: Optional[tuple], journal: bool) -> Any:
        """Collect ``shard``'s reply to the already-sent ``msg``.

        ``msg is None`` collects the boot handshake.  On an infra
        fault: kill the worker, back off (deterministic schedule from
        the shard seed), respawn + replay, and — for journaled commands
        — take the reply straight from the replay; read-only queries
        are re-sent.  Past the budget: inline fallback or ShardError.
        """
        if self._inline is not None:
            # A fallback inside this exchange replayed every journal, so
            # a journaled command's reply is already there; anything
            # else still has to run.
            reply = self._fallback_replies.pop(shard, None)
            if journal or msg is None:
                return reply
            return _apply_inline(self._inline, shard, msg)
        policy = self._supervision.policy
        attempts = 0
        needs_respawn = False
        resend = False
        while True:
            try:
                if needs_respawn:
                    reply = self._respawn_and_replay(shard)
                    needs_respawn = False
                    if journal or msg is None:
                        return reply
                    resend = True
                if resend:
                    self._send(shard, msg)
                    resend = False
                return self._unwrap(self._recv_supervised(shard))
            except SupervisionError as fault:
                self.log.note_fault(fault)
                self._stop_worker(shard)
                attempts += 1
                if attempts > policy.retries:
                    if self._supervision.fallback_inline:
                        return self._fall_back(shard, msg, journal, fault)
                    raise ShardError(
                        f"shard {shard} worker lost ({fault}); retry "
                        f"budget ({policy.retries}) exhausted"
                    ) from fault
                self.log.retries += 1
                _wall.sleep(self._delays(shard)[attempts - 1])
                needs_respawn = True

    def _fall_back(
        self, shard: int, msg: Optional[tuple], journal: bool, fault
    ) -> Any:
        """Degrade the whole campaign ``process -> inline``.

        Every shard worker is rebuilt in-process from its spec and its
        journal replayed, so the campaign continues from exactly the
        pre-fault barrier state — slower, but byte-identical.
        """
        self.log.fallbacks.append(shard)
        note_degradation(
            {
                "kind": "shard_inline_fallback",
                "shard": shard,
                "fault": type(fault).__name__,
                "attempts": self._supervision.policy.retries + 1,
            }
        )
        for other in range(len(self._specs)):
            self._stop_worker(other)
        inline = _InlineExecutor(self._specs)
        inline.boot()
        self._fallback_replies = {}
        for other, journal_msgs in enumerate(self._journals):
            reply = None
            for jmsg in journal_msgs:
                reply = _apply_inline(inline, other, jmsg)
            self._fallback_replies[other] = reply
        self._inline = inline
        if journal or msg is None:
            return self._fallback_replies.pop(shard)
        self._fallback_replies.pop(shard, None)
        return _apply_inline(inline, shard, msg)

    def _exchange(
        self, messages: Sequence[Tuple[int, tuple]], journal: bool
    ) -> List[Any]:
        """Send each ``(shard, msg)`` — one per shard — then collect the
        replies in that order.

        Every frame is journaled and sent before the first reply is
        read, so the shards work on their commands at the same time.
        """
        if self._inline is not None:
            return [
                _apply_inline(self._inline, shard, msg)
                for shard, msg in messages
            ]
        for shard, msg in messages:
            if journal:
                self._journals[shard].append(msg)
            self._send(shard, msg)
        return [self._finish(shard, msg, journal) for shard, msg in messages]

    # -- executor surface ----------------------------------------------

    def start_all(self) -> List[Optional[float]]:
        return self._exchange(
            [(shard, ("start",)) for shard in range(len(self._specs))],
            journal=True,
        )

    def advance_all(
        self, until: float, injections: Sequence[Sequence[tuple]]
    ) -> List[Tuple[List[tuple], Optional[float]]]:
        return self._exchange(
            [
                (shard, ("advance", until, list(injections[shard])))
                for shard in range(len(self._specs))
            ],
            journal=True,
        )

    def apply_ops(
        self, targets: Sequence[Tuple[int, Sequence[tuple]]]
    ) -> List[Tuple[List[tuple], Optional[float]]]:
        return self._exchange(
            [(shard, ("apply_ops", list(ops))) for shard, ops in targets],
            journal=True,
        )

    def query_all(self, what: str, arg: Any = None) -> List[Any]:
        return self._exchange(
            [
                (shard, ("query", what, arg))
                for shard in range(len(self._specs))
            ],
            journal=what in _MUTATING_QUERIES,
        )

    def query(self, shard: int, what: str, arg: Any = None) -> Any:
        return self._exchange(
            [(shard, ("query", what, arg))],
            journal=what in _MUTATING_QUERIES,
        )[0]

    def close(self) -> None:
        try:
            for conn in self._conns:
                if conn is not None:
                    try:
                        send_frame(conn, ("stop",))
                    except (BrokenPipeError, OSError):
                        pass
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - wedged worker
                    proc.kill()
                    proc.join(timeout=2.0)
        finally:
            for conn in self._conns:
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - defensive
                        pass
            self._procs = []
            self._conns = []
            if self._inline is not None:
                self._inline.close()


def _apply_inline(
    inline: _InlineExecutor, shard: int, msg: Optional[tuple]
) -> Any:
    """Execute one pipe-protocol command against an in-process worker."""
    if msg is None:  # pragma: no cover - handshake needs no replay
        return None
    cmd = msg[0]
    worker = inline._workers[shard]
    if cmd == "start":
        return worker.start()
    if cmd == "advance":
        return worker.advance(msg[1], msg[2])
    if cmd == "apply_ops":
        return worker.apply_ops(msg[1])
    if cmd == "query":
        return worker.query(msg[1], msg[2])
    raise ShardError(f"unknown command {cmd!r}")  # pragma: no cover


_EXECUTORS = {"inline": _InlineExecutor, "process": _ProcessExecutor}


# ---------------------------------------------------------------------------
# Coordinator facade
# ---------------------------------------------------------------------------


class _FacadeClock:
    """Duck-type of the engine surface drivers touch.

    ``schedule_at`` arms *driver operations* (perturbation injector
    callbacks) on a coordinator-side heap; they run at epoch barriers,
    which the epoch-target rule aligns with their exact times.
    """

    def __init__(self, owner: "ShardedSimulation"):
        self._owner = owner

    @property
    def now(self) -> float:
        return self._owner._now

    def run(self, until: Optional[float] = None) -> float:
        return self._owner._run(until)

    def run_for(self, duration: float) -> float:
        return self._owner._run(self._owner._now + duration)

    def schedule_at(self, time: float, callback) -> None:
        owner = self._owner
        if time < owner._now:
            raise SimulationError(
                f"cannot schedule in the past: time={time} < {owner._now}"
            )
        heapq.heappush(owner._ops, (time, next(owner._op_order), callback))

    def schedule(self, delay: float, callback) -> None:
        self.schedule_at(self._owner._now + delay, callback)

    def next_event_time(self) -> Optional[float]:
        return self._owner._next_event_time()

    @property
    def pending_events(self) -> int:
        return self._owner._pending_events()

    @property
    def max_events(self) -> int:
        return self._owner._max_events or 0

    @max_events.setter
    def max_events(self, value: int) -> None:
        self._owner._max_events = value
        self._owner._executor.query_all("set_max_events", value)


class _MergedTracer:
    """Read-only merge of the per-shard tracers."""

    def __init__(self, owner: "ShardedSimulation"):
        self._owner = owner

    def last_time(self, *categories: str) -> Optional[float]:
        times = [
            t
            for t in self._owner._executor.query_all(
                "trace_last", tuple(categories)
            )
            if t is not None
        ]
        return max(times) if times else None

    @property
    def last_time_by_category(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for shard_map in self._owner._executor.query_all("last_by_category"):
            for category, time in shard_map.items():
                if category not in merged or time > merged[category]:
                    merged[category] = time
        return merged

    @property
    def counts(self):
        from collections import Counter

        merged: Counter = Counter()
        for shard_counts in self._owner._executor.query_all("counts"):
            merged.update(shard_counts)
        return merged

    @property
    def records(self) -> List[TraceRecord]:
        merged: List[TraceRecord] = []
        for shard_records in self._owner._executor.query_all("records"):
            merged.extend(shard_records)
        return merged

    def count(self, category: str) -> int:
        return sum(self._owner._executor.query_all("count", category))

    def count_prefix(self, prefix: str) -> int:
        return sum(
            v for k, v in self.counts.items() if k.startswith(prefix)
        )

    def by_category(self, category: str):
        return (r for r in self.records if r.category == category)


class _MergedFaults:
    """Summed channel-fault counters across shards (verdict inputs)."""

    def __init__(self, owner: "ShardedSimulation"):
        self._owner = owner

    def _totals(self) -> Tuple[int, int]:
        totals = self._owner._executor.query_all("faults")
        return (
            sum(t[0] for t in totals),
            sum(t[1] for t in totals),
        )

    @property
    def jam_drops(self) -> int:
        return self._totals()[0]

    @property
    def loss_drops(self) -> int:
        return self._totals()[1]


class _FacadeRadio:
    __slots__ = ("faults",)

    def __init__(self, faults: _MergedFaults):
        self.faults = faults


class _FacadeRuntime:
    """The slice of ``Gs3Runtime`` drivers and verdicts read."""

    def __init__(self, owner: "ShardedSimulation"):
        self.sim = _FacadeClock(owner)
        self.rng = owner._rng
        self.tracer = owner.tracer
        self.radio = _FacadeRadio(_MergedFaults(owner))
        self.config = owner.config
        self.lattice = owner.lattice
        self.network = owner.network


class ShardedSimulation(PerturbationOps, PacketOps):
    """Coordinator for a spatially sharded GS3-D run.

    Duck-types the ``Gs3DynamicSimulation`` surface that
    ``ScenarioExecution`` and the chaos campaigns drive: ``start``,
    ``run_for``, ``stabilize``, ``snapshot``, the ``runtime``/``tracer``/
    ``network`` attributes, and the driver ops, whose public methods
    both drivers share (:mod:`~repro.core.driver_ops`).  Mobility,
    cross-stripe moves, custom corruption mutators, energy-driven death
    and record streaming are not supported sharded.
    """

    def __init__(
        self,
        deployment_spec: Dict[str, Any],
        config,
        seed: int = 0,
        shards: int = 1,
        executor: str = "inline",
        channel=None,
        node_kind: str = "dynamic",
        keep_trace_records: bool = True,
        max_events: Optional[int] = None,
        supervise: Optional[Any] = None,
    ):
        from ..geometry import HexLattice
        from ..net import ChannelMediator, deployment_from_spec

        if executor not in _EXECUTORS:
            raise ShardError(
                f"unknown shard executor {executor!r}; "
                f"expected one of {sorted(_EXECUTORS)}"
            )
        if supervise is None or isinstance(supervise, dict):
            supervision = ShardSupervision.from_dict(supervise)
        else:
            supervision = supervise
        self.config = config
        self.seed = seed
        self.shards = shards
        self.executor_kind = executor
        self._rng = RngStreams(seed)
        self.deployment = deployment_from_spec(
            dict(deployment_spec), RngStreams(seed)
        )
        self.network = self.deployment.build_network(
            max_range=config.recommended_max_range
        )
        self.lattice = HexLattice(
            origin=self.network.big_node.position,
            spacing=config.lattice_spacing,
            orientation=config.gr_orientation,
        )
        self._lookahead = config.hop_latency
        self.partition = plan_partition(
            self.lattice,
            [self.network.node(i).position for i in self.network.node_ids()],
            shards,
            config.recommended_max_range,
        )
        # Presence: which shards carry each node (owner first).  Grows
        # monotonically — a mirror is never dropped, so every future
        # state change reaches every copy.
        self._presence: Dict[int, List[int]] = {}
        owned: List[List[int]] = [[] for _ in range(shards)]
        mirrors: List[List[int]] = [[] for _ in range(shards)]
        for node_id in self.network.node_ids():
            stripes = self._stripes_of(self.network.node(node_id).position)
            self._presence[node_id] = stripes
            owned[stripes[0]].append(node_id)
            for stripe in stripes[1:]:
                mirrors[stripe].append(node_id)
        specs = [
            ShardSpec(
                index=i,
                config=config,
                deployment_spec=dict(deployment_spec),
                seed=seed,
                channel=channel,
                node_kind=node_kind,
                keep_trace_records=keep_trace_records,
                max_events=max_events,
                owned=tuple(owned[i]),
                mirrors=tuple(mirrors[i]),
            )
            for i in range(shards)
        ]
        self._executor = _EXECUTORS[executor](specs, supervision)
        #: Supervision counters/degradations of the process executor
        #: (an inline executor's log stays empty).
        self.supervision_log = self._executor.log
        self._max_events = max_events
        self._now = 0.0
        self._started = False
        self._closed = False
        self._next_times: List[Optional[float]] = [None] * shards
        self._pending_inject: List[List[tuple]] = [[] for _ in range(shards)]
        self._mediator = ChannelMediator(self._lookahead)
        self._ops: List[tuple] = []
        self._op_order = itertools.count()
        self._driver_ops = itertools.count()
        #: Conservative epoch barriers executed so far.  At high packet
        #: rates the coordinator round trips (one per barrier, plus one
        #: per driver-op dispatch) dominate the data plane's wall time;
        #: benches read these to locate that crossover.
        self.barrier_count = 0
        self.op_dispatches = 0
        self.tracer = _MergedTracer(self)
        self.runtime = _FacadeRuntime(self)

    # -- partition helpers ----------------------------------------------

    def _stripes_of(self, position) -> List[int]:
        q = self.lattice.fractional_axial(position)[0]
        return self.partition.stripes_near(q)

    # -- lifecycle ------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._executor.boot()
        self._executor.start_all()
        # Zero-width barrier: execute the time-0 boot events so every
        # later epoch ``(b, B]`` can rely on events at ``b`` having
        # already run (the strict-lookahead argument needs ``t > b``).
        self._barrier(0.0)

    def run_for(self, duration: float) -> float:
        return self._run(self._now + duration)

    def close(self) -> None:
        """Shut down worker processes (no-op for the inline executor)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the epoch loop -------------------------------------------------

    def _run(self, until: Optional[float]) -> float:
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} before now={self._now}"
            )
        self.start()
        if until is None:
            # Run to quiescence: jump barrier-by-barrier until nothing
            # is pending anywhere (GS3-D never drains; this is for
            # parity with the engine surface).
            while True:
                target = self._next_event_time()
                if target is None:
                    return self._now
                self._advance_to(max(target, self._now))
        if until > self._now:
            self._advance_to(until)
        return self._now

    def _advance_to(self, until: float) -> None:
        while True:
            self._run_due_ops()
            self._flush_channel()
            if self._now >= until:
                break
            t_op = self._ops[0][0] if self._ops else None
            hard = until if t_op is None else min(until, t_op)
            if hard <= self._now:
                # An op landed exactly at now and was just executed;
                # loop to re-evaluate.
                continue
            t_min = self._shard_next_time()
            if t_min is None or t_min > hard:
                # No shard work before the deadline: jump straight to
                # it; shards only move their clocks.
                target = hard
            else:
                # Center the epoch on the earliest pending event: it
                # executes in this epoch with half a lookahead of
                # follow-room, and anything it sends lands strictly
                # after the barrier (arrival >= t_min + L > target).
                base = max(self._now, t_min - self._lookahead / 2.0)
                target = min(hard, base + self._lookahead)
            self._barrier(target)

    def _barrier(self, target: float) -> None:
        self.barrier_count += 1
        injections = self._pending_inject
        self._pending_inject = [[] for _ in range(self.shards)]
        replies = self._executor.advance_all(target, injections)
        self._now = target
        for shard, (outbox, next_time) in enumerate(replies):
            self._next_times[shard] = next_time
            self._ingest(shard, outbox)

    def _ingest(self, shard: int, outbox: Iterable[tuple]) -> None:
        for entry in outbox:
            kind = entry[0]
            if kind == "deliver":
                dest_id = entry[4]
                owner = self._presence[dest_id][0]
                self._pending_inject[owner].append(entry)
            else:
                self._mediator.ingest(shard, entry)

    def _flush_channel(self) -> None:
        for shard, time, key, lease_id in self._mediator.flush():
            self._pending_inject[shard].append(
                ("grant", time, key, lease_id)
            )

    def _run_due_ops(self) -> None:
        while self._ops and self._ops[0][0] <= self._now:
            _, _, callback = heapq.heappop(self._ops)
            callback()

    # -- merged clock queries -------------------------------------------

    def _shard_next_time(self) -> Optional[float]:
        candidates = [t for t in self._next_times if t is not None]
        for pending in self._pending_inject:
            candidates.extend(item[1] for item in pending)
        return min(candidates) if candidates else None

    def _next_event_time(self) -> Optional[float]:
        candidates = []
        shard_next = self._shard_next_time()
        if shard_next is not None:
            candidates.append(shard_next)
        if self._ops:
            candidates.append(self._ops[0][0])
        return min(candidates) if candidates else None

    def _pending_events(self) -> int:
        total = sum(self._executor.query_all("pending"))
        total += sum(len(pending) for pending in self._pending_inject)
        total += len(self._ops)
        return total

    @property
    def executed_events(self) -> int:
        """Total events executed across all shards."""
        return sum(self._executor.query_all("executed"))

    # -- driver operations ----------------------------------------------

    def _drive(self, kind: str, desc: tuple) -> Any:
        """Run driver op ``k`` at the current barrier.

        Every shard :meth:`_route` names applies it in lane
        ``DRIVER_BASE + k``; the executor sends it to all of them
        before it reads a reply, and their outboxes are ingested in
        target order.  Returns a joined node's id, else ``None`` (an
        attached plane lives in the shards).
        """
        result, targets = self._route(kind, desc)
        self.start()
        lane = DRIVER_BASE + next(self._driver_ops)
        self.op_dispatches += 1
        replies = self._executor.apply_ops(
            [(shard, [(lane, op)]) for shard, op in targets]
        )
        for (shard, _), (outbox, next_time) in zip(targets, replies):
            self._next_times[shard] = next_time
            self._ingest(shard, outbox)
        self._flush_channel()
        return result

    def _route(
        self, kind: str, desc: tuple
    ) -> Tuple[Any, List[Tuple[int, Tuple[str, tuple]]]]:
        """``(result, [(shard, (kind, desc)), ...])`` for one op.

        An op that changes a node's physical state reaches every shard
        carrying the node (owner first); one that touches only a program
        (corrupt, send) reaches the owner; jam and traffic attach reach
        every shard.  The coordinator's network and presence table move
        with the op.
        """
        network = self.network
        if kind in ("kill", "revive"):
            (node_id,) = desc
            if kind == "kill":
                network.kill_node(node_id)
            else:
                network.revive_node(node_id)
            return None, [(s, (kind, desc)) for s in self._presence[node_id]]
        if kind == "join":
            _, position = desc
            node_id = network.add_node(
                position, max_range=self.config.recommended_max_range
            ).node_id
            stripes = self._presence[node_id] = self._stripes_of(position)
            return node_id, [(stripes[0], ("join", (node_id, position)))] + [
                (shard, ("mirror", (node_id, position, True)))
                for shard in stripes[1:]
            ]
        if kind == "move":
            node_id, position = desc
            stripes = self._presence[node_id]
            new_stripes = self._stripes_of(position)
            if new_stripes[0] != stripes[0]:
                raise ShardError(
                    f"node {node_id} would cross from shard {stripes[0]} to "
                    f"{new_stripes[0]}; cross-region moves are not supported "
                    "(run with shards=1 or a mobility-free scenario)"
                )
            alive = network.node(node_id).alive
            network.move_node(node_id, position)
            targets = [(shard, ("move", desc)) for shard in stripes]
            for shard in new_stripes:
                if shard not in stripes:
                    stripes.append(shard)
                    targets.append(
                        (shard, ("mirror", (node_id, position, alive)))
                    )
            return None, targets
        if kind == "corrupt":
            node_id, mutator = desc
            if mutator is not default_corruption:
                raise ShardError(
                    "sharded runs support only the default corruption mutator"
                )
            return None, [(self._presence[node_id][0], (kind, desc))]
        if kind == "jam":
            # Every shard installs the window (any shard may host an
            # affected sender); exactly one emits the trace record so the
            # merged multiset matches a one-shard run.
            window, _ = desc
            return None, [
                (shard, ("jam", (window, shard == 0)))
                for shard in range(self.shards)
            ]
        if kind == "attach":
            if desc[1] is not None:
                raise ValueError(
                    "record streaming is in-process only; sharded planes "
                    "live in worker processes"
                )
            return None, [(shard, (kind, desc)) for shard in range(self.shards)]
        # "send" carries one packet, "send_batch" a same-source tuple.
        source = desc[0] if kind == "send" else desc[0][0]
        return None, [(self._presence[source.src][0], (kind, desc))]

    def attach_energy(self, *args, **kwargs):
        raise ShardError("energy-driven death is not supported sharded")

    # -- data plane (repro.traffic) --------------------------------------

    def traffic_records(
        self,
    ) -> Tuple[Dict[int, tuple], tuple, Dict[int, int]]:
        """Merged ``(terminals, hop entries, relay loads)``.

        Each packet terminates on exactly one shard (the frame lives on
        a single node), so the per-shard terminal maps are disjoint;
        hop entries carry explicit hop indices, so sorting the
        concatenation by ``(pid, hop)`` restores every path even when
        it crossed stripes mid-flight; relay loads sum per node.
        """
        terminals: Dict[int, tuple] = {}
        hops: List[tuple] = []
        relay: Dict[int, int] = {}
        for shard_terminals, shard_hops, shard_relay in (
            self._executor.query_all("traffic")
        ):
            terminals.update(shard_terminals)
            hops.extend(shard_hops)
            for node_id, load in shard_relay.items():
                relay[node_id] = relay.get(node_id, 0) + load
        hops.sort(key=lambda entry: (entry[0], entry[1]))
        return terminals, tuple(hops), relay

    # -- observation -----------------------------------------------------

    def _snapshot_and_gaps(self):
        """The merged structure and its :meth:`gap_axials`, from one
        snapshot query."""
        from ..core.snapshot import StructureSnapshot

        views: Dict[int, Any] = {}
        gaps: Set[Any] = set()
        for shard_views, shard_gaps in self._executor.query_all("snapshot"):
            views.update(shard_views)
            gaps |= shard_gaps
        snapshot = StructureSnapshot(
            time=self._now,
            ideal_radius=self.config.ideal_radius,
            radius_tolerance=self.config.radius_tolerance,
            lattice=self.lattice,
            big_id=self.network.big_id,
            views={node_id: views[node_id] for node_id in sorted(views)},
        )
        return snapshot, gaps - set(snapshot.head_by_axial)

    def snapshot(self):
        return self._snapshot_and_gaps()[0]

    def gap_axials(self) -> set:
        return self._snapshot_and_gaps()[1]

    # -- convergence ------------------------------------------------------

    def run_until_stable(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Optional[Iterable[str]] = None,
    ) -> float:
        from ..core.simulation import STRUCTURE_CHANGE_CATEGORIES, converged_at

        return converged_at(
            self, window, max_time,
            STRUCTURE_CHANGE_CATEGORIES if categories is None else categories,
        )

    def stabilize(
        self,
        window: float = 50.0,
        max_time: float = 100_000.0,
        categories: Optional[Iterable[str]] = None,
        check_invariants: bool = True,
        field=None,
        dynamic: bool = True,
        horizon: Optional[float] = None,
    ):
        """``Gs3Simulation.stabilize`` over the merged run: the same
        module-level loop, on the facade clock, merged tracer and
        merged snapshot."""
        from ..core.simulation import STRUCTURE_CHANGE_CATEGORIES, stabilize

        return stabilize(
            self, window, max_time,
            STRUCTURE_CHANGE_CATEGORIES if categories is None else categories,
            check_invariants, field, dynamic, horizon,
        )
