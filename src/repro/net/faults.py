"""Adversarial channel fault models for the radio layer.

The paper's channel assumption (Section 2.1) is deliberately weak —
broadcasts *may* be lost — and the reproduction originally modelled
that with a memoryless Bernoulli drop per receiver.  Real wireless
channels misbehave in richer ways, and the self-stabilization
literature stresses healing algorithms with exactly those adversaries:

* **bursty loss** — losses cluster in time (interference, deep fades).
  Modelled with the classic Gilbert–Elliott two-state Markov chain: a
  *good* state with low loss and a *bad* (burst) state with high loss,
  with geometric sojourn times in each.
* **latency jitter** — per-delivery extra delay, desynchronising the
  lock-step heartbeat timing the protocol would otherwise enjoy.
* **frame duplication** — a receiver occasionally hears the same frame
  twice (retransmission artefacts); handlers must tolerate replays.
* **regional jamming** — a disk of the field hears nothing for a time
  window (adversarial interference, modelled after the mass-perturbation
  experiments of Section 4).

:class:`ChannelFaultModel` bundles all four and is consulted by
:class:`~repro.net.radio.Radio` once per broadcast delivery.  Every
stochastic draw comes from the sender's own named
:class:`~repro.sim.RngStreams` streams (``radio.loss.<sender>`` …),
drawn at send time, so replicated runs stay deterministic and a draw
never depends on which shard hosts the receiver; the radio's Bernoulli
``broadcast_loss`` is exactly the degenerate configuration
``ChannelFaultModel(rng, bernoulli_loss=p)``.

``Radio`` keeps its fast path when no fault model is installed: the
model is only consulted when present, so fault-free benchmarks are
unaffected (see ``benchmarks/bench_perf_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..geometry import Vec2
from ..sim import RngStreams

__all__ = [
    "ChannelFaultConfig",
    "ChannelFaultModel",
    "GilbertElliottConfig",
    "JamWindow",
]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Parameters of the two-state bursty-loss Markov chain.

    The chain is stepped once per broadcast delivery: the current
    state's loss probability decides the drop, then the state
    transitions with ``p_enter_burst`` (good → bad) or
    ``p_exit_burst`` (bad → good).  Expected burst length is
    ``1 / p_exit_burst`` deliveries; stationary loss is
    ``(loss_good * p_exit + loss_bad * p_enter) / (p_enter + p_exit)``.
    """

    p_enter_burst: float
    p_exit_burst: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        _check_probability("p_enter_burst", self.p_enter_burst)
        _check_probability("p_exit_burst", self.p_exit_burst)
        _check_probability("loss_good", self.loss_good)
        _check_probability("loss_bad", self.loss_bad)

    def stationary_loss(self) -> float:
        """Long-run average loss probability of the chain."""
        total = self.p_enter_burst + self.p_exit_burst
        if total == 0.0:
            return self.loss_good  # chain never leaves the good state
        return (
            self.loss_good * self.p_exit_burst
            + self.loss_bad * self.p_enter_burst
        ) / total


@dataclass(frozen=True)
class JamWindow:
    """A time-windowed jamming disk: broadcasts with either endpoint
    inside the disk during ``[start, end)`` are dropped."""

    start: float
    end: float
    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"jam window must end after it starts, got "
                f"[{self.start}, {self.end})"
            )
        if self.radius <= 0.0:
            raise ValueError(f"jam radius must be positive, got {self.radius}")

    def covers(self, now: float, position: Vec2) -> bool:
        """Whether ``position`` is jammed at virtual time ``now``."""
        return (
            self.start <= now < self.end
            and self.center.distance_sq_to(position) <= self.radius * self.radius
        )


@dataclass(frozen=True)
class ChannelFaultConfig:
    """Declarative, picklable fault-model description.

    This is the form carried by scenario JSON (``"channel"`` block) and
    by chaos-campaign specs across process boundaries; call
    :meth:`build` with the replicate's :class:`RngStreams` to get the
    stateful :class:`ChannelFaultModel`.
    """

    bernoulli_loss: float = 0.0
    gilbert_elliott: Optional[GilbertElliottConfig] = None
    latency_jitter: float = 0.0
    duplicate_prob: float = 0.0
    jam_windows: Sequence[JamWindow] = ()

    def __post_init__(self) -> None:
        _check_probability("bernoulli_loss", self.bernoulli_loss)
        _check_probability("duplicate_prob", self.duplicate_prob)
        if self.latency_jitter < 0.0:
            raise ValueError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )
        if self.bernoulli_loss and self.gilbert_elliott is not None:
            raise ValueError(
                "specify either bernoulli_loss or gilbert_elliott, not both "
                "(the Bernoulli model is the degenerate chain)"
            )

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ChannelFaultConfig":
        """Parse a ``channel`` block from plain data (loaded JSON).

        Unknown keys are rejected loudly so a typo'd fault knob fails
        at parse time rather than silently running a clean channel.
        """
        known = {
            "bernoulli_loss",
            "gilbert_elliott",
            "latency_jitter",
            "duplicate_prob",
            "jam_windows",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown channel fault keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        ge = data.get("gilbert_elliott")
        windows = [
            JamWindow(
                start=float(w["start"]),
                end=float(w["end"]),
                center=Vec2(*w["center"]),
                radius=float(w["radius"]),
            )
            for w in data.get("jam_windows", ())
        ]
        return ChannelFaultConfig(
            bernoulli_loss=float(data.get("bernoulli_loss", 0.0)),
            gilbert_elliott=(
                GilbertElliottConfig(
                    p_enter_burst=float(ge["p_enter_burst"]),
                    p_exit_burst=float(ge["p_exit_burst"]),
                    loss_good=float(ge.get("loss_good", 0.0)),
                    loss_bad=float(ge.get("loss_bad", 1.0)),
                )
                if ge is not None
                else None
            ),
            latency_jitter=float(data.get("latency_jitter", 0.0)),
            duplicate_prob=float(data.get("duplicate_prob", 0.0)),
            jam_windows=tuple(windows),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        data: Dict[str, Any] = {}
        if self.bernoulli_loss:
            data["bernoulli_loss"] = self.bernoulli_loss
        if self.gilbert_elliott is not None:
            ge = self.gilbert_elliott
            data["gilbert_elliott"] = {
                "p_enter_burst": ge.p_enter_burst,
                "p_exit_burst": ge.p_exit_burst,
                "loss_good": ge.loss_good,
                "loss_bad": ge.loss_bad,
            }
        if self.latency_jitter:
            data["latency_jitter"] = self.latency_jitter
        if self.duplicate_prob:
            data["duplicate_prob"] = self.duplicate_prob
        if self.jam_windows:
            data["jam_windows"] = [
                {
                    "start": w.start,
                    "end": w.end,
                    "center": [w.center.x, w.center.y],
                    "radius": w.radius,
                }
                for w in self.jam_windows
            ]
        return data

    def build(self, rng: RngStreams) -> "ChannelFaultModel":
        """Instantiate the stateful model on a run's rng streams."""
        return ChannelFaultModel(
            rng,
            bernoulli_loss=self.bernoulli_loss,
            gilbert_elliott=self.gilbert_elliott,
            latency_jitter=self.latency_jitter,
            duplicate_prob=self.duplicate_prob,
            jam_windows=self.jam_windows,
        )


class _SenderChannel:
    """One sender's fault streams and Gilbert–Elliott burst state.

    Streams shared by all senders would be consumed in global delivery
    order, which depends on how the event population interleaves — a
    shard-count-dependent quantity.  Keying the streams (and the chain
    state) by *sender* makes every draw a function of that sender's own
    deterministic send sequence, which is shard-invariant.  Only the
    streams of the processes the model runs are created: every sender
    pays for them.
    """

    __slots__ = ("loss_rng", "jitter_rng", "dup_rng", "_in_burst")

    def __init__(self, model: "ChannelFaultModel", sender: Any):
        rng = model._rng
        lossy = model.gilbert_elliott is not None or model.bernoulli_loss
        self.loss_rng = rng.stream(f"radio.loss.{sender}") if lossy else None
        self.jitter_rng = (
            rng.stream(f"radio.jitter.{sender}")
            if model.latency_jitter
            else None
        )
        self.dup_rng = (
            rng.stream(f"radio.duplicate.{sender}")
            if model.duplicate_prob
            else None
        )
        self._in_burst = False


class ChannelFaultModel:
    """Stateful per-run fault model consulted by the radio per delivery.

    Loss draws come from the sender's ``radio.loss.<sender>`` stream,
    jitter from ``radio.jitter.<sender>``, duplication from
    ``radio.duplicate.<sender>``; data frames use the ``data.<sender>``
    variants.  Jamming is deterministic given the window list and
    consumes no randomness.

    The model keeps forensic counters (``jam_drops``, ``loss_drops``,
    ``duplicates_sent``) so campaign verdicts can attribute drops.
    """

    def __init__(
        self,
        rng: RngStreams,
        bernoulli_loss: float = 0.0,
        gilbert_elliott: Optional[GilbertElliottConfig] = None,
        latency_jitter: float = 0.0,
        duplicate_prob: float = 0.0,
        jam_windows: Sequence[JamWindow] = (),
    ):
        # Route validation through the frozen config so programmatic and
        # JSON construction reject bad parameters identically.
        self.config = ChannelFaultConfig(
            bernoulli_loss=bernoulli_loss,
            gilbert_elliott=gilbert_elliott,
            latency_jitter=latency_jitter,
            duplicate_prob=duplicate_prob,
        )
        self.bernoulli_loss = bernoulli_loss
        self.gilbert_elliott = gilbert_elliott
        self.latency_jitter = latency_jitter
        self.duplicate_prob = duplicate_prob
        self._rng = rng
        self._sender_channels: Dict[Any, _SenderChannel] = {}
        self._data_channels: Dict[Any, _SenderChannel] = {}
        self._jam_windows: List[JamWindow] = list(jam_windows)
        self.jam_drops = 0
        self.loss_drops = 0
        self.duplicates_sent = 0

    # -- jamming --------------------------------------------------------

    @property
    def jam_windows(self) -> List[JamWindow]:
        """The currently registered jam windows (expired ones are
        pruned on :meth:`add_jam_window`)."""
        return self._jam_windows

    def add_jam_window(self, window: JamWindow) -> JamWindow:
        """Register a jamming disk; returns it for bookkeeping."""
        # Prune windows that can never fire again; campaigns add
        # windows over time, so this bounds the per-delivery scan.
        start = window.start
        self._jam_windows = [
            w for w in self._jam_windows if w.end > start
        ]
        self._jam_windows.append(window)
        return window

    def jammed(self, now: float, position: Vec2) -> bool:
        """Whether ``position`` lies in any active jamming disk."""
        for window in self._jam_windows:
            if window.covers(now, position):
                return True
        return False

    # -- per-delivery consultation --------------------------------------

    def _channel_for(self, sender: Any) -> _SenderChannel:
        """The sender's stream/state bundle."""
        channel = self._sender_channels.get(sender)
        if channel is None:
            channel = _SenderChannel(self, sender)
            self._sender_channels[sender] = channel
        return channel

    def drop_broadcast(
        self,
        now: float,
        sender_pos: Vec2,
        receiver_pos: Vec2,
        sender: Any,
    ) -> bool:
        """Decide one broadcast delivery's fate (``True`` = dropped).

        Jamming is checked first (deterministic, no rng draw), then the
        stochastic loss process — so jam windows never perturb the loss
        stream of an otherwise identical run.
        """
        if self._jam_windows and (
            self.jammed(now, sender_pos) or self.jammed(now, receiver_pos)
        ):
            self.jam_drops += 1
            return True
        ge = self.gilbert_elliott
        if ge is None and not self.bernoulli_loss:
            return False
        channel = self._channel_for(sender)
        if ge is not None:
            rng = channel.loss_rng
            loss = ge.loss_bad if channel._in_burst else ge.loss_good
            dropped = loss > 0.0 and rng.random() < loss
            flip = ge.p_exit_burst if channel._in_burst else ge.p_enter_burst
            if flip > 0.0 and rng.random() < flip:
                channel._in_burst = not channel._in_burst
            if dropped:
                self.loss_drops += 1
            return dropped
        if channel.loss_rng.random() < self.bernoulli_loss:
            self.loss_drops += 1
            return True
        return False

    # -- data-plane consultation ----------------------------------------
    #
    # Unicast data frames draw from their own per-sender streams
    # (``radio.*.data.<sender>``), never the protocol's.  Protocol
    # broadcasts replay on every shard that mirrors the sender, so their
    # stream replicas stay in lockstep; a data send executes only on the
    # owning shard, and letting it advance the shared protocol stream
    # would desynchronise the mirrors' replicas — a shard-count-dependent
    # trajectory.  Separate streams also mean attaching a traffic plane
    # never perturbs the control-plane fault realisation.

    def _data_channel(self, sender: Any) -> "_SenderChannel":
        channel = self._data_channels.get(sender)
        if channel is None:
            channel = _SenderChannel(self, f"data.{sender}")
            self._data_channels[sender] = channel
        return channel

    def drop_data(
        self,
        now: float,
        sender_pos: Vec2,
        receiver_pos: Vec2,
        sender: Any,
    ) -> bool:
        """Decide one unicast data delivery's fate (``True`` = dropped).

        Same channel process as :meth:`drop_broadcast` — jam disks
        first, then Gilbert–Elliott or Bernoulli loss — but drawn from
        the sender's dedicated data streams (with their own burst
        state), so the data plane sees an independent realisation of
        the configured channel.
        """
        if self._jam_windows and (
            self.jammed(now, sender_pos) or self.jammed(now, receiver_pos)
        ):
            self.jam_drops += 1
            return True
        ge = self.gilbert_elliott
        if ge is None and not self.bernoulli_loss:
            return False
        channel = self._data_channel(sender)
        if ge is not None:
            rng = channel.loss_rng
            loss = ge.loss_bad if channel._in_burst else ge.loss_good
            dropped = loss > 0.0 and rng.random() < loss
            flip = ge.p_exit_burst if channel._in_burst else ge.p_enter_burst
            if flip > 0.0 and rng.random() < flip:
                channel._in_burst = not channel._in_burst
            if dropped:
                self.loss_drops += 1
            return dropped
        if channel.loss_rng.random() < self.bernoulli_loss:
            self.loss_drops += 1
            return True
        return False

    def data_latency(self, sender: Any) -> float:
        """Per-delivery jitter for a unicast data frame."""
        if self.latency_jitter:
            rng = self._data_channel(sender).jitter_rng
            return rng.uniform(0.0, self.latency_jitter)
        return 0.0

    def extra_latency(self, sender: Any) -> float:
        """Per-delivery latency jitter, uniform on ``[0, latency_jitter]``."""
        if self.latency_jitter:
            channel = self._channel_for(sender)
            return channel.jitter_rng.uniform(0.0, self.latency_jitter)
        return 0.0

    def extra_copies(self, sender: Any) -> int:
        """How many duplicate frames to deliver on top of the original."""
        if self.duplicate_prob:
            channel = self._channel_for(sender)
            if channel.dup_rng.random() < self.duplicate_prob:
                self.duplicates_sent += 1
                return 1
        return 0

    @property
    def is_degenerate_bernoulli(self) -> bool:
        """Whether the model reduces to memoryless Bernoulli loss."""
        return (
            self.gilbert_elliott is None
            and self.latency_jitter == 0.0
            and self.duplicate_prob == 0.0
            and not self._jam_windows
        )
