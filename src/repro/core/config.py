"""Protocol configuration for GS3.

All tunables of the three protocol layers live here, with the paper's
geometric parameters (``R``, ``R_t``, ``GR``) first-class and every
derived quantity (search radius, alpha, lattice spacing) computed once:
on first use, cached on the instance (``functools.cached_property``).
The cache is not part of the configuration: ``==``, ``hash``,
:meth:`GS3Config.to_dict` and pickles see the fields only, and
``dataclasses.replace`` builds a config that computes its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict

from ..geometry import search_alpha, search_radius

__all__ = ["GS3Config"]


@dataclass(frozen=True)
class GS3Config:
    """Parameters of the GS3 protocols.

    Geometric parameters (Section 2.2):

    Attributes:
        ideal_radius: the ideal cell radius ``R``.
        radius_tolerance: ``R_t`` — with high probability every disk of
            radius ``R_t`` contains a node.  Must satisfy
            ``R_t < sqrt(3)/2 * R`` so that candidate areas of
            neighbouring cells cannot overlap (the paper's default is
            ``R / 4``).
        gr_orientation: angle (radians) of the global reference
            direction ``GR``; any value works as long as it is
            consistent network-wide, which the diffusing computation
            guarantees.

    Timing parameters (virtual-time ticks; one tick = one local
    message exchange):

    Attributes:
        hop_latency: delay of one transmission.
        collect_window: how long HEAD_ORG listens for org replies
            before running HEAD_SELECT (needs one round trip).
        heartbeat_interval: period of intra-cell and inter-cell
            heartbeats (GS3-D).
        failure_timeout_beats: heartbeats missed before a peer is
            declared failed.
        sanity_interval: period of SANITY_CHECK (GS3-D); the paper asks
            for a low frequency.
        boundary_probe_interval: period at which boundary heads re-run
            HEAD_ORG towards empty directions (GS3-D).
        join_retry_interval: how long a booting node waits before
            retrying SMALL_NODE_BOOT_UP.
        claim_ladder_delay: extra delay per candidate rank before
            claiming headship of a cell whose head failed; serialises
            the candidate election without extra messages.

    Behaviour switches (used by the ablation benchmarks):

    Attributes:
        enable_cell_shift: toggles STRENGTHEN_CELL (cell shift).
        enable_sanity_check: toggles periodic SANITY_CHECK.
        anchor_on_il: when ``True`` (the paper's algorithm), a head
            derives neighbour ILs from its cell's exact IL; when
            ``False`` it anchors on its own physical position, which
            lets deviation accumulate band after band — the drift the
            GR/IL diffusion exists to prevent.
        min_candidates: cell shift triggers when the number of live
            candidates drops below this.
        broadcast_loss: per-receiver broadcast drop probability.

    Root liveness (GS3-D head maintenance):

    Attributes:
        root_stale_timeouts: ``K`` — a head treats an advertised
            ``hops_to_root`` as valid only while the advertiser's root
            freshness (``root_heard_at``) is within
            ``K * failure_timeout`` of now.  This is the DSDV-style
            staleness horizon that kills count-to-infinity parent
            cycles after the root falls silent.  Must cover the
            freshness propagation lag of the deepest expected tree
            (one heartbeat per hop), so keep
            ``K * failure_timeout_beats`` well above the tree depth.
        enable_root_regeneration: when a head's own root freshness
            expires and PARENT_SEEK finds no fresh-epoch parent, it
            enters ROOT_SEEK and — if it wins the deterministic
            election (closest to the last known root position, then
            lowest id) — regenerates as a replacement root with a new
            ``root_epoch``.  Duplicate roots reconcile when
            connectivity returns (higher epoch wins).  Disable to
            reproduce the pre-fix wedge behaviour.
    """

    ideal_radius: float = 100.0
    radius_tolerance: float = 25.0
    gr_orientation: float = 0.0

    hop_latency: float = 1.0
    collect_window: float = 2.5
    heartbeat_interval: float = 10.0
    failure_timeout_beats: float = 3.5
    sanity_interval: float = 50.0
    boundary_probe_interval: float = 60.0
    join_retry_interval: float = 15.0
    claim_ladder_delay: float = 3.0

    enable_cell_shift: bool = True
    enable_sanity_check: bool = True
    anchor_on_il: bool = True
    min_candidates: int = 1
    broadcast_loss: float = 0.0
    #: Standard deviation of each node's (fixed) location estimation
    #: error.  The paper assumes signal-strength-based relative
    #: location; this models its inaccuracy.  Protocol decisions use
    #: the believed position; radio delivery uses the true one.
    location_error: float = 0.0

    root_stale_timeouts: float = 3.0
    enable_root_regeneration: bool = True

    def __post_init__(self) -> None:
        if self.ideal_radius <= 0.0:
            raise ValueError(
                f"ideal_radius must be positive, got {self.ideal_radius}"
            )
        if not 0.0 < self.radius_tolerance < math.sqrt(3.0) / 2.0 * self.ideal_radius:
            raise ValueError(
                "radius_tolerance must satisfy 0 < R_t < sqrt(3)/2 * R, got "
                f"R={self.ideal_radius}, R_t={self.radius_tolerance}"
            )
        if self.collect_window < 2.0 * self.hop_latency:
            raise ValueError(
                "collect_window must cover a round trip "
                f"(>= {2 * self.hop_latency}), got {self.collect_window}"
            )
        if self.location_error < 0.0:
            raise ValueError(
                f"location_error must be >= 0, got {self.location_error}"
            )
        if self.root_stale_timeouts < 1.0:
            raise ValueError(
                "root_stale_timeouts must be >= 1 (the root-freshness "
                "horizon cannot be shorter than the liveness horizon), "
                f"got {self.root_stale_timeouts}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """All configured fields as plain data (for canonical digests)."""
        return {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }

    def __getstate__(self) -> Dict[str, Any]:
        # The fields only: the process executor and the sweep pool
        # pickle configs, and their bytes must not depend on which
        # derived values were read first.
        return self.to_dict()

    # -- derived geometry ---------------------------------------------------

    @cached_property
    def lattice_spacing(self) -> float:
        """Distance between neighbouring ILs: ``sqrt(3) * R``."""
        return math.sqrt(3.0) * self.ideal_radius

    @cached_property
    def search_radius(self) -> float:
        """``sqrt(3)*R + 2*R_t`` — the local-coordination radius."""
        return search_radius(self.ideal_radius, self.radius_tolerance)

    @cached_property
    def alpha(self) -> float:
        """The angular margin ``asin(R_t / (sqrt(3) R))`` in radians."""
        return search_alpha(self.ideal_radius, self.radius_tolerance)

    @cached_property
    def max_cell_radius(self) -> float:
        """Invariant I2.4's bound on the cell radius:
        ``R + 2 R_t / sqrt(3)``."""
        return self.ideal_radius + 2.0 * self.radius_tolerance / math.sqrt(3.0)

    @cached_property
    def cell_broadcast_range(self) -> float:
        """Range for intra-cell broadcasts: covers the worst-case cell
        radius with an ``R_t`` margin for head/IL deviation."""
        return self.max_cell_radius + self.radius_tolerance

    @cached_property
    def neighbor_distance_low(self) -> float:
        """Corollary 1 lower bound: ``sqrt(3)*R - 2*R_t``."""
        return self.lattice_spacing - 2.0 * self.radius_tolerance

    @cached_property
    def neighbor_distance_high(self) -> float:
        """Corollary 1 upper bound: ``sqrt(3)*R + 2*R_t``."""
        return self.lattice_spacing + 2.0 * self.radius_tolerance

    @cached_property
    def failure_timeout(self) -> float:
        """Silence (ticks) after which a heartbeat peer is failed."""
        return self.failure_timeout_beats * self.heartbeat_interval

    @cached_property
    def root_stale_horizon(self) -> float:
        """Root-freshness horizon: ``root_stale_timeouts * failure_timeout``.

        An advertised ``hops_to_root`` whose ``root_heard_at`` stamp is
        older than this is discarded by parent adoption.
        """
        return self.root_stale_timeouts * self.failure_timeout

    @cached_property
    def recommended_max_range(self) -> float:
        """Node radio range sufficient for all protocol traffic.

        Local coordination spans ``search_radius`` between *ILs*; the
        physical endpoints can each deviate ``R_t`` more.
        """
        return self.search_radius + 2.0 * self.radius_tolerance
