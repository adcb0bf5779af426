"""GS3-D: self-configuration and self-healing in dynamic networks
(Section 4).

Extends GS3-S with:

* **node join** — ``SMALL_NODE_BOOT_UP`` / ``HEAD_JOIN_RESP`` /
  ``ASSOCIATE_JOIN_RESP``: a booting node probes for nearby heads,
  falls back to a surrogate associate, and retries periodically;
* **intra-cell maintenance** — heads heartbeat their cell
  (*head_intra_alive*) and track associates and candidates; on head
  failure the ranked candidates elect a replacement through a claim
  ladder (*head shift*); when the candidate set weakens the head
  shifts the cell's ideal location along the <ICC, ICP> spiral
  (*cell shift*, ``STRENGTHEN_CELL``); irreparable cells are abandoned;
* **inter-cell maintenance** — heads heartbeat their neighbourhood
  (*head_inter_alive*), keep the head graph a minimum-hop tree towards
  the root, re-run HEAD_ORG towards failed children and R_t-gap cells,
  and seek new parents when their parent dies (``PARENT_SEEK``);
* **sanity checking** — heads periodically validate their own state
  against the hexagonal invariant and their neighbours, stepping down
  when corrupted;
* **BIG_SLIDE** — when cell shift moves the central cell's IL away
  from the big node, the big node hands the root role to its cell's
  head (proxy) and reclaims it when the IL returns.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from ..geometry import Axial, IntraCellLattice, Vec2, hex_distance
from ..net import NodeId
from ..sim import EventHandle, PeriodicTimer
from .gs3s import Gs3StaticNode
from .head_select import rank_candidates
from .messages import (
    AssociateAlive,
    AssociateJoinOffer,
    AssociateRetreat,
    CellAbandoned,
    HeadClaim,
    HeadDisconnected,
    HeadIntraAlive,
    HeadInterAlive,
    HeadJoinOffer,
    HeadRetreat,
    HeadRetreatCorrupted,
    JoinAccept,
    JoinProbe,
    NewChildHead,
    ParentSeek,
    ParentSeekAck,
    ProxyGrant,
    ProxyRevoke,
    ReplacingHead,
    RootSeek,
    SanityCheckReq,
    SanityCheckValid,
)
from .runtime import Gs3Runtime
from .state import NeighborInfo, NodeStatus

__all__ = ["Gs3DynamicNode"]


class Gs3DynamicNode(Gs3StaticNode):
    """The GS3-D program: GS3-S plus join, maintenance, and healing."""

    #: Status the big node assumes while it is not a head.  GS3-D's
    #: BIG_SLIDE (the IL slid away); GS3-M overrides with BIG_MOVE.
    big_away_status = NodeStatus.BIG_SLIDE

    def __init__(self, runtime: Gs3Runtime, node_id: NodeId):
        super().__init__(runtime, node_id)
        self._timer: Optional[PeriodicTimer] = None
        self._claim_handle: Optional[EventHandle] = None
        #: Last time each associate of our cell was heard (heads only).
        self._associate_last_heard: Dict[NodeId, float] = {}
        #: Virtual time when we last re-ran HEAD_ORG for healing.
        self._last_reorg: float = -math.inf
        #: Ticks since boot, used to pace the slower periodic modules.
        self._tick_count: int = 0
        #: Time we last had a live parent (heads only).
        self._parent_ok_since: float = 0.0
        #: Whether this head currently deputises for the big node.
        self.is_proxy: bool = False
        #: The big node's current proxy (big node only).
        self._proxy_id: Optional[NodeId] = None
        #: Last join probe time (bootup nodes).
        self._last_probe: float = -math.inf
        #: Time this node last assumed headship (heads only).
        self._head_since: float = -math.inf
        #: Exponential backoff for join probes (reset on re-boot).
        self._probe_backoff: float = 0.0
        #: Last time any protocol message was received.
        self._last_activity: float = -math.inf
        #: When each (forward) neighbouring cell was seen vacant.
        self._vacant_since: Dict = {}
        #: Last PARENT_SEEK broadcast (rate-limits the probe: parent
        #: adoption runs on every received beat, not just on ticks).
        self._last_parent_seek: float = -math.inf
        #: When this head entered ROOT_SEEK (``None`` = not seeking).
        self._root_seek_since: Optional[float] = None
        #: Last instant the away big node heard any head (reseed timer).
        self._away_heard: float = -math.inf

    # ------------------------------------------------------------------
    # root position
    # ------------------------------------------------------------------

    @property
    def root_position(self) -> Vec2:
        """Last known root position (the lattice origin by default)."""
        if self.state.root_position is not None:
            return self.state.root_position
        return self.rt.lattice.origin

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        super().start()
        interval = self.cfg.heartbeat_interval
        jitter = self.rt.rng.stream(f"node.{self.node_id}").uniform(0.5, 1.5)
        self._timer = PeriodicTimer(
            self.rt.sim, interval, self._maintenance_tick
        )
        self._timer.start(initial_delay=interval * jitter)

    def on_killed(self) -> None:
        """Invoked by the simulation when this node dies or leaves."""
        if self._timer is not None:
            self._timer.stop()
        self._cancel_claim()
        self._finish_org()

    def on_revived(self) -> None:
        """Invoked when a dead node re-joins: boot from scratch."""
        self.state.reset()
        self.known_heads.clear()
        self._associate_last_heard.clear()
        self.is_proxy = False
        if self._timer is not None:
            self._timer.stop()
        self.start()
        self.rt.trace("node.bootup", self.node_id)

    # ------------------------------------------------------------------
    # the periodic maintenance dispatcher
    # ------------------------------------------------------------------

    def _maintenance_tick(self) -> None:
        if not self.alive:
            raise StopIteration  # stop the timer
        self._tick_count += 1
        self._prune_known_heads()
        status = self.state.status
        if status.is_head_like:
            self._head_intra_cell()
            # Intra-cell maintenance may have retreated, shifted, or
            # abandoned the cell: re-check before the next module.
            if not self.state.status.is_head_like:
                return
            self._head_inter_cell()
            if not self.state.status.is_head_like:
                return
            if (
                self.cfg.enable_sanity_check
                and self._tick_count
                % max(
                    1,
                    int(
                        self.cfg.sanity_interval / self.cfg.heartbeat_interval
                    ),
                )
                == 0
            ):
                self._sanity_check()
        elif status is NodeStatus.ASSOCIATE:
            self._associate_intra_cell()
        elif status is NodeStatus.BOOTUP:
            self._small_node_boot_up()
        elif status in (NodeStatus.BIG_SLIDE, NodeStatus.BIG_MOVE):
            self._big_await_resume()

    def _prune_known_heads(self) -> None:
        """Forget heads not heard within the failure timeout.

        Heartbeats keep live heads fresh in GS3-D, so stale entries are
        dead (or out of range) with high probability.
        """
        horizon = self.rt.sim.now - self.cfg.failure_timeout
        stale = [
            node_id
            for node_id, info in self.known_heads.items()
            if info.last_heard < horizon
        ]
        for node_id in stale:
            del self.known_heads[node_id]

    # ------------------------------------------------------------------
    # HEAD_INTRA_CELL
    # ------------------------------------------------------------------

    def _head_intra_cell(self) -> None:
        state = self.state
        now = self.rt.sim.now
        # Prune associates that stopped heartbeating (node leave/death
        # masked within the cell).
        horizon = now - self.cfg.failure_timeout
        for node_id, heard in list(self._associate_last_heard.items()):
            if heard < horizon:
                del self._associate_last_heard[node_id]
                state.associate_positions.pop(node_id, None)
        # Shift/retreat decisions need a settled view of the cell: a
        # freshly promoted head has heard no associate heartbeats yet,
        # so its candidate view is empty even in a healthy cell.
        settled = (
            now - self._head_since >= 2.0 * self.cfg.heartbeat_interval
        )
        # A mobile head that drifted off its IL steps down (head shift).
        if settled and (
            self.position.distance_to(state.current_il)
            > self.cfg.radius_tolerance + 1e-9
        ):
            if self._retreat_for_mobility():
                return
        candidates = self._ranked_candidates(state.current_il)
        state.candidate_ids = {c for c, _ in candidates}
        if (
            settled
            and self.cfg.enable_cell_shift
            and len(candidates) < self.cfg.min_candidates
        ):
            if self._strengthen_cell():
                return
        if self.is_root or self.is_proxy:
            state.root_position = self.position
            # The root is the origin of liveness: stamp every beat.
            state.root_epoch = max(state.root_epoch, 1)
            state.root_heard_at = now
        alive = HeadIntraAlive(
            sender=self.node_id,
            position=self.position,
            axial=state.cell_axial,
            oil=state.oil,
            current_il=state.current_il,
            icc_icp=state.icc_icp,
            candidates=tuple(c for c, _ in candidates),
            hops_to_root=state.hops_to_root,
            root_position=self.root_position,
            root_epoch=state.root_epoch,
            root_heard_at=state.root_heard_at,
        )
        self.rt.radio.broadcast(
            self.node_id, alive, tx_range=self.cfg.cell_broadcast_range
        )
        # Boundary cells may legitimately reach sqrt(3)R + 2R_t; far
        # members are served by reliable destination-aware unicast so
        # they keep hearing their head.
        reach = self.cfg.cell_broadcast_range - self.cfg.radius_tolerance
        own = self.position
        for node_id, position in state.associate_positions.items():
            if own.distance_to(position) > reach:
                self.rt.radio.unicast(self.node_id, node_id, alive)

    def _ranked_candidates(self, il: Vec2) -> List[Tuple[NodeId, Vec2]]:
        """Associates within R_t of ``il``, ranked per HEAD_SELECT."""
        in_area = [
            (node_id, position)
            for node_id, position in self.state.associate_positions.items()
            if il.distance_to(position) <= self.cfg.radius_tolerance
        ]
        return rank_candidates(il, in_area, self.rt.gr_direction)

    def _intra_lattice(self) -> IntraCellLattice:
        return IntraCellLattice(
            oil=self.state.oil,
            radius_tolerance=self.cfg.radius_tolerance,
            orientation=self.cfg.gr_orientation,
            cell_radius=self.cfg.ideal_radius,
        )

    def _strengthen_cell(self) -> bool:
        """STRENGTHEN_CELL: move the cell's IL to the next candidate
        area (Figure 5) that still contains live associates.

        Returns ``True`` when a shift or abandonment happened (the
        caller must stop its current heartbeat round).
        """
        state = self.state
        lattice = self._intra_lattice()
        for address, location in lattice.iter_from(state.icc_icp):
            candidates = self._ranked_candidates(location)
            if not candidates:
                continue
            # Found the next viable IL: hand the cell over.
            self.rt.trace(
                "cell.shift",
                self.node_id,
                axial=state.cell_axial,
                new_icc_icp=address,
            )
            self.rt.radio.broadcast(
                self.node_id,
                HeadRetreat(
                    sender=self.node_id,
                    new_il=location,
                    new_icc_icp=address,
                    new_candidates=tuple(c for c, _ in candidates),
                ),
                tx_range=self.cfg.cell_broadcast_range,
            )
            self._step_down_to_associate(
                new_head=candidates[0][0], new_head_position=candidates[0][1]
            )
            return True
        # No viable IL anywhere in the cell: abandon it.
        self._abandon_cell()
        return True

    def _abandon_cell(self) -> None:
        self.rt.trace(
            "cell.abandoned", self.node_id, axial=self.state.cell_axial
        )
        self.rt.radio.broadcast(
            self.node_id,
            CellAbandoned(sender=self.node_id),
            tx_range=self.cfg.cell_broadcast_range,
        )
        self._reset_to_bootup()

    def _retreat_for_mobility(self) -> bool:
        """A head that moved away from its IL hands the cell to the
        best candidate (plain head shift).  Falls back to cell shift /
        abandonment when no candidate exists."""
        candidates = self._ranked_candidates(self.state.current_il)
        if not candidates:
            if self.cfg.enable_cell_shift:
                return self._strengthen_cell()
            self._abandon_cell()
            return True
        self.rt.trace(
            "head.retreat", self.node_id, axial=self.state.cell_axial
        )
        self.rt.radio.broadcast(
            self.node_id,
            HeadRetreat(
                sender=self.node_id,
                new_candidates=tuple(c for c, _ in candidates),
            ),
            tx_range=self.cfg.cell_broadcast_range,
        )
        self._step_down_to_associate(
            new_head=candidates[0][0], new_head_position=candidates[0][1]
        )
        return True

    def _step_down_to_associate(
        self, new_head: NodeId, new_head_position: Vec2
    ) -> None:
        """Retreat from headship, becoming an associate of ``new_head``."""
        state = self.state
        if self.is_big:
            # BIG_SLIDE / BIG_MOVE: the big node never becomes a plain
            # associate; it waits for a current IL to come within R_t
            # of it while a proxy head deputises as root.
            state.status = self.big_away_status
            self._grant_proxy(new_head)
        else:
            state.status = NodeStatus.ASSOCIATE
        state.head_id = new_head
        state.head_position = new_head_position
        state.head_last_heard = self.rt.sim.now
        state.children = set()
        state.candidate_ids = set()
        state.associate_positions = {}
        self._associate_last_heard.clear()
        state.parent_id = None
        state.parent_il = None

    def _reset_to_bootup(self) -> None:
        if self.is_big:
            # The big node never re-enters plain BOOTUP: it *is* the
            # root.  When its cell collapses under it (abandonment,
            # sanity reset — e.g. every associate silenced by a jam) it
            # steps aside BIG_SLIDE-style and reclaims a cell when one
            # becomes audible again, with a fresh epoch.
            self._big_step_aside()
            return
        self._cancel_claim()
        self._finish_org()
        self.state.reset()
        self.rt.trace("node.bootup", self.node_id)
        self._last_probe = -math.inf
        self._probe_backoff = 0.0
        self._root_seek_since = None

    def _big_step_aside(self) -> None:
        """The big node's cell dissolved with no successor candidate:
        wait in the away status until any cell's IL drifts within R_t
        (``_big_await_resume``), instead of rebooting as a small node."""
        self._cancel_claim()
        self._finish_org()
        state = self.state
        state.status = self.big_away_status
        state.parent_id = None
        state.parent_il = None
        state.children = set()
        state.candidate_ids = set()
        state.associate_positions = {}
        self._associate_last_heard.clear()
        state.head_id = None
        state.head_position = None
        self._root_seek_since = None
        self._away_heard = self.rt.sim.now
        self.rt.trace("big.step_aside", self.node_id)

    # ------------------------------------------------------------------
    # ASSOCIATE / CANDIDATE _INTRA_CELL
    # ------------------------------------------------------------------

    def _associate_intra_cell(self) -> None:
        state = self.state
        now = self.rt.sim.now
        stale_for = now - state.head_last_heard
        if state.head_id is None or stale_for <= self.cfg.failure_timeout:
            return
        # The head is silent past the failure timeout.
        if state.is_candidate and self._claim_handle is None:
            rank = self._own_claim_rank()
            delay = self.cfg.claim_ladder_delay * rank
            self._claim_handle = self.rt.sim.schedule(
                delay, self._try_claim_headship
            )
        elif not state.is_candidate and stale_for > 2.0 * self.cfg.failure_timeout:
            # Give candidates their chance first, then give up and
            # re-join from scratch.
            self._reset_to_bootup()

    def _own_claim_rank(self) -> int:
        try:
            return self.state.known_candidates.index(self.node_id)
        except ValueError:
            return len(self.state.known_candidates)

    def _try_claim_headship(self) -> None:
        self._claim_handle = None
        state = self.state
        if not self.alive or state.status is not NodeStatus.ASSOCIATE:
            return
        now = self.rt.sim.now
        if now - state.head_last_heard <= self.cfg.failure_timeout:
            return  # a head (old or new) resurfaced in the meantime
        if state.current_il is None or state.cell_axial is None:
            self._reset_to_bootup()
            return
        self._become_cell_head_by_claim()

    def _become_cell_head_by_claim(self) -> None:
        state = self.state
        self._head_since = self.rt.sim.now
        state.status = NodeStatus.WORK
        state.head_id = None
        state.head_position = None
        state.is_candidate = False
        # Re-derive the cell's OIL and <ICC, ICP> from first principles
        # instead of trusting what the (possibly corrupted) previous
        # head broadcast: the OIL is the lattice point of the cell's
        # axial address, and the <ICC, ICP> is wherever the current IL
        # sits on the intra-cell spiral.  This stops state corruption
        # from re-infecting each successive claimant.
        state.oil = self.rt.lattice.point(state.cell_axial)
        address = self._intra_lattice().address_of(state.current_il)
        if address is None:
            # The inherited IL is not a spiral location of this cell:
            # the inherited state is corrupt beyond local repair.
            self._reset_to_bootup()
            return
        state.icc_icp = address
        state.children = set()
        state.associate_positions = {}
        self._associate_last_heard.clear()
        self._adopt_best_parent(initial=True)
        self.rt.trace(
            "head.claim", self.node_id, axial=state.cell_axial
        )
        self.rt.radio.broadcast(
            self.node_id,
            HeadClaim(
                sender=self.node_id,
                position=self.position,
                axial=state.cell_axial,
                oil=state.oil,
                current_il=state.current_il,
                icc_icp=state.icc_icp,
                hops_to_root=state.hops_to_root,
                root_position=self.root_position,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
            tx_range=self.cfg.search_radius,
        )

    def _cancel_claim(self) -> None:
        if self._claim_handle is not None:
            self._claim_handle.cancel()
            self._claim_handle = None

    # ------------------------------------------------------------------
    # HEAD_INTER_CELL
    # ------------------------------------------------------------------

    def _head_inter_cell(self) -> None:
        state = self.state
        now = self.rt.sim.now
        # Drop stale neighbour entries.
        horizon = now - self.cfg.failure_timeout
        failed_axials = []
        for axial, info in list(state.neighbor_heads.items()):
            if info.last_heard < horizon:
                failed_axials.append(axial)
                del state.neighbor_heads[axial]
        # Parent health.
        if self.is_root or self.is_proxy:
            state.hops_to_root = 0
            state.parent_id = self.node_id
            state.root_position = self.position
            state.root_epoch = max(state.root_epoch, 1)
            state.root_heard_at = now
            self._parent_ok_since = now
            self._root_seek_since = None
        else:
            # Re-evaluate the parent each beat: neighbour positions or
            # the root's position may have changed (GS3-M).
            self._adopt_best_parent()
            if self.state.parent_id is not None:
                self._parent_ok_since = now
                self._root_seek_since = None
            else:
                if (
                    self.cfg.enable_root_regeneration
                    and state.root_heard_at is not None
                    and now - state.root_heard_at
                    > self.cfg.root_stale_horizon
                ):
                    # Our whole reachable neighbourhood lost the root
                    # (PARENT_SEEK keeps failing and our own root view
                    # expired): probe for any fresh-epoch path and, if
                    # none answers, elect a replacement root.
                    self._root_seek(now)
                    if not state.status.is_head_like:
                        return
                if (
                    now - self._parent_ok_since
                    > 3.0 * self.cfg.failure_timeout
                ):
                    # PARENT_SEEK failed everywhere: dissolve the cell.
                    self.rt.trace(
                        "head.disconnected",
                        self.node_id,
                        axial=state.cell_axial,
                    )
                    self.rt.radio.broadcast(
                        self.node_id,
                        HeadDisconnected(sender=self.node_id),
                        tx_range=self.cfg.cell_broadcast_range,
                    )
                    self._reset_to_bootup()
                    return
        # Heal failed children / probe R_t-gap cells by re-running
        # HEAD_ORG (the organiser skips occupied cells automatically).
        # A vacant cell gets a grace period first: its own candidates
        # claim headship via intra-cell maintenance, and a premature
        # re-organisation would race them and create duplicate heads.
        probe_interval = self.cfg.boundary_probe_interval
        forward = {axial for axial, _ in self._candidate_ils()}
        for axial in failed_axials:
            if axial in forward:
                self._vacant_since.setdefault(axial, now)
        occupied_now = {
            info.axial for info in state.neighbor_heads.values()
        } | {info.axial for info in self.known_heads.values()}
        for axial in list(self._vacant_since):
            # Re-occupied cells stop being vacant; cells that left the
            # forward candidate set (e.g. after a cell shift changed
            # our spiral offset) are no longer ours to re-organise —
            # without the second clause the dict grows without bound
            # and keeps triggering spurious re-organisation.
            if axial in occupied_now or axial not in forward:
                del self._vacant_since[axial]
        claim_grace = 2.0 * self.cfg.failure_timeout
        needs_reorg = any(
            now - since >= claim_grace
            for since in self._vacant_since.values()
        )
        if self.gap_axials and now - self._last_reorg >= probe_interval:
            needs_reorg = True
        if needs_reorg and now - self._last_reorg >= self.cfg.failure_timeout:
            self._last_reorg = now
            self.start_head_org()
        # Heartbeat the neighbourhood.  The paper's head_inter_alive
        # goes "to its parent as well [as] children heads" — it is
        # destination-aware, so we unicast to the known neighbouring
        # heads and fall back to a discovery broadcast every fifth
        # beat (and whenever no neighbour is known yet).
        beat = HeadInterAlive(
            sender=self.node_id,
            position=self.position,
            axial=state.cell_axial,
            il=state.current_il,
            icc_icp=state.icc_icp,
            hops_to_root=state.hops_to_root,
            parent_id=state.parent_id,
            is_root=self.is_root or self.is_proxy,
            root_position=self.root_position,
            root_epoch=state.root_epoch,
            root_heard_at=state.root_heard_at,
        )
        targets = {info.node_id for info in state.neighbor_heads.values()}
        for known in self.known_heads.values():
            if (
                state.cell_axial is not None
                and hex_distance(known.axial, state.cell_axial) == 1
            ):
                targets.add(known.node_id)
        targets.discard(self.node_id)
        if not targets or self._tick_count % 5 == 0:
            self.rt.radio.broadcast(
                self.node_id, beat, tx_range=self.cfg.recommended_max_range
            )
        else:
            for target in targets:
                self.rt.radio.unicast(self.node_id, target, beat)

    def _adopt_best_parent(self, initial: bool = False) -> None:
        """Maintain the parent pointer (HEAD_INTER_CELL item ii).

        F1.2 requires the head graph to be a minimum-distance spanning
        tree of the head neighbouring graph G_hn towards the root, so a
        head adopts the neighbouring head with the fewest hops to the
        root (ties broken by ideal-location distance to the root, then
        id).  Switching is *sticky*: the current parent is kept unless
        a neighbour is strictly better; stickiness is what contains the
        impact of a big-node move (Theorem 11): heads whose hop count
        merely shifts with the root keep their parents, and only the
        watershed near the move must re-point.

        An advertised ``hops_to_root`` is only valid *relative to a
        live root*, so candidates are filtered DSDV-style: entries not
        heard within the failure timeout are skipped (a dead head must
        not re-enter via the known-heads merge), and entries whose
        advertised root freshness exceeds ``root_stale_horizon`` are
        discarded — once the root falls silent, every member of a
        parent cycle stops re-stamping, the whole cycle expires
        together, and count-to-infinity is structurally impossible.
        Among valid entries a higher ``root_epoch`` beats any hop
        count.  On adoption the head takes over the parent's root view
        (epoch + freshness), which is what diffuses liveness one hop
        per beat down the tree.
        """
        state = self.state
        if self.is_root or self.is_proxy:
            return
        now = self.rt.sim.now
        root = self.root_position
        live_horizon = now - self.cfg.failure_timeout
        fresh_horizon = now - self.cfg.root_stale_horizon

        def usable(info) -> bool:
            if info.last_heard < live_horizon:
                return False
            # ``None`` = advertiser predates the liveness layer (or no
            # root stamp has reached it yet): treated as fresh so that
            # boot-time adoption is unchanged.
            if info.root_heard_at is None:
                return True
            return info.root_heard_at >= fresh_horizon

        entries = {
            info.node_id: info
            for info in state.neighbor_heads.values()
            if usable(info)
        }
        if state.cell_axial is not None:
            for known in self.known_heads.values():
                if known.node_id in entries:
                    continue
                if hex_distance(known.axial, state.cell_axial) != 1:
                    continue
                if not usable(known):
                    continue
                entries[known.node_id] = known
        entries.pop(self.node_id, None)

        def key(info):
            return (
                -info.root_epoch,
                info.hops_to_root,
                info.il.distance_to(root),
                info.node_id,
            )

        current = entries.get(state.parent_id)
        best = min(entries.values(), key=key, default=None)
        if best is None:
            if not initial:
                state.parent_id = None
                # PARENT_SEEK: actively probe for heads we cannot hear
                # passively (e.g. after large perturbations).  Rate
                # limited: adoption re-runs on every received beat.
                if now - self._last_parent_seek >= self.cfg.heartbeat_interval:
                    self._last_parent_seek = now
                    self.rt.radio.broadcast(
                        self.node_id,
                        ParentSeek(
                            sender=self.node_id,
                            axial=state.cell_axial,
                            root_epoch=state.root_epoch,
                            root_heard_at=state.root_heard_at,
                        ),
                        tx_range=self.cfg.recommended_max_range,
                    )
            return
        chosen = best
        if current is not None and current.node_id != best.node_id:
            if (-best.root_epoch, best.hops_to_root) >= (
                -current.root_epoch,
                current.hops_to_root,
            ):
                chosen = current  # sticky: no strict improvement
        if state.parent_id != chosen.node_id:
            previous_parent = state.parent_id
            state.parent_id = chosen.node_id
            state.parent_il = chosen.il
            state.hops_to_root = chosen.hops_to_root + 1
            self.rt.trace(
                "parent.change",
                self.node_id,
                parent=chosen.node_id,
                hops=state.hops_to_root,
            )
            # new_child_head: tell the adopted parent (and implicitly
            # release the old one, whose children set is pruned when
            # our inter-alive shows a different parent_id).
            self.rt.radio.unicast(
                self.node_id,
                chosen.node_id,
                NewChildHead(sender=self.node_id, axial=state.cell_axial),
            )
        else:
            state.parent_il = chosen.il
            state.hops_to_root = chosen.hops_to_root + 1
        # DSDV view adoption: our root view is our parent's root view.
        if chosen.root_heard_at is not None:
            state.root_epoch = chosen.root_epoch
            state.root_heard_at = chosen.root_heard_at
        else:
            self._merge_root_freshness(chosen.root_epoch, chosen.root_heard_at)

    # ------------------------------------------------------------------
    # ROOT_SEEK / big regeneration
    # ------------------------------------------------------------------

    def _root_seek(self, now: float) -> None:
        """ROOT_SEEK: the head's own root freshness expired and no
        fresh-epoch parent candidate exists anywhere in earshot.

        Probe for heads that still hold a fresh path (they answer with
        a full heartbeat, restoring a parent through the normal
        adoption path); after a grace of two beats with no restored
        parent, run the deterministic replacement-root election.
        """
        state = self.state
        if self._root_seek_since is None:
            self._root_seek_since = now
            self.rt.trace(
                "root.seek",
                self.node_id,
                axial=state.cell_axial,
                epoch=state.root_epoch,
            )
        self.rt.radio.broadcast(
            self.node_id,
            RootSeek(
                sender=self.node_id,
                axial=state.cell_axial,
                max_epoch_heard=self._max_epoch_heard,
            ),
            tx_range=self.cfg.recommended_max_range,
        )
        if now - self._root_seek_since < 2.0 * self.cfg.heartbeat_interval:
            return
        if self._wins_root_election():
            self._regenerate_root(now)

    def _wins_root_election(self) -> bool:
        """Deterministic replacement-root election among live heads.

        Every stale head evaluates the same rule over its local view:
        the head closest to the last known root position (then lowest
        id) wins.  Views are local, so disconnected clusters may each
        elect one replacement — duplicate roots reconcile through
        :meth:`_reconcile_roots` once connectivity returns.
        """
        now = self.rt.sim.now
        live_horizon = now - self.cfg.failure_timeout
        root = self.root_position
        mine = (self.position.distance_to(root), self.node_id)
        seen = set()
        for info in self.state.neighbor_heads.values():
            if info.last_heard >= live_horizon:
                seen.add(info.node_id)
                if (info.position.distance_to(root), info.node_id) < mine:
                    return False
        for info in self.known_heads.values():
            if info.node_id in seen or info.last_heard < live_horizon:
                continue
            if (info.position.distance_to(root), info.node_id) < mine:
                return False
        return True

    def _regenerate_root(self, now: float) -> None:
        """Boot a replacement root with a fresh (strictly higher) epoch."""
        state = self.state
        state.root_epoch = self._next_root_epoch()
        state.root_heard_at = now
        state.parent_id = self.node_id
        state.parent_il = state.current_il
        state.hops_to_root = 0
        state.root_position = self.position
        self._parent_ok_since = now
        self._root_seek_since = None
        self.rt.trace(
            "root.regenerate",
            self.node_id,
            axial=state.cell_axial,
            epoch=state.root_epoch,
        )
        # Announce immediately so sibling seekers adopt us instead of
        # electing themselves on their own grace expiry.
        self.rt.radio.broadcast(
            self.node_id,
            HeadInterAlive(
                sender=self.node_id,
                position=self.position,
                axial=state.cell_axial,
                il=state.current_il,
                icc_icp=state.icc_icp,
                hops_to_root=0,
                parent_id=state.parent_id,
                is_root=True,
                root_position=self.position,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
            tx_range=self.cfg.recommended_max_range,
        )

    # ------------------------------------------------------------------
    # SANITY_CHECK
    # ------------------------------------------------------------------

    def _sanity_check(self) -> None:
        """Validate our own head state; step down when corrupted.

        Two layers, as in the paper's SANITY_CHECK:

        1. *self-check* — the cell's current IL must sit at the
           <ICC, ICP> spiral location of its OIL, the head must be
           within R_t of the current IL, and the OIL must be the
           lattice point of the cell's axial address;
        2. *neighbour check* — if the self-check passes but the
           hexagonal relation to some neighbour is violated, ask the
           neighbours to validate themselves (*sanity_check_req*); a
           neighbour replying *sanity_check_valid* while the relation
           remains broken convicts us.
        """
        state = self.state
        if not self._state_is_sane():
            self.rt.trace(
                "sanity.reset", self.node_id, axial=state.cell_axial
            )
            self.rt.radio.broadcast(
                self.node_id,
                HeadRetreatCorrupted(sender=self.node_id),
                tx_range=self.cfg.cell_broadcast_range,
            )
            self._reset_to_bootup()
            return
        broken = any(
            self._relation_violated(info.il, info.icc_icp)
            for info in state.neighbor_heads.values()
        )
        if broken:
            self.rt.radio.broadcast(
                self.node_id,
                SanityCheckReq(sender=self.node_id, axial=state.cell_axial),
                tx_range=self.cfg.recommended_max_range,
            )

    def _state_is_sane(self) -> bool:
        state = self.state
        if state.cell_axial is None or state.current_il is None:
            return False
        if state.oil is None:
            return False
        expected_oil = self.rt.lattice.point(state.cell_axial)
        if not state.oil.is_close(expected_oil, tol=1e-6):
            return False
        try:
            expected_il = state.oil + self._intra_lattice().offset_of(
                state.icc_icp
            )
        except KeyError:
            return False
        if not state.current_il.is_close(expected_il, tol=1e-6):
            return False
        if (
            self.position.distance_to(state.current_il)
            > self.cfg.radius_tolerance + 1e-6
        ):
            return False
        if state.hops_to_root < 0:
            return False
        return True

    # ------------------------------------------------------------------
    # SMALL_NODE_BOOT_UP (node join)
    # ------------------------------------------------------------------

    def _small_node_boot_up(self) -> None:
        now = self.rt.sim.now
        if self._probe_backoff <= 0.0:
            self._probe_backoff = self.cfg.join_retry_interval
        if now - self._last_probe < self._probe_backoff:
            return
        # While protocol traffic is audible nearby, the configuration
        # wave is still working its way here: wait rather than probe.
        if now - self._last_activity < self.cfg.join_retry_interval:
            return
        self._last_probe = now
        self._probe_backoff = min(
            self._probe_backoff * 2.0, 8.0 * self.cfg.join_retry_interval
        )
        self.rt.radio.broadcast(
            self.node_id,
            JoinProbe(sender=self.node_id, position=self.position),
            tx_range=self.cfg.recommended_max_range,
        )
        self.rt.sim.schedule(self.cfg.collect_window, self._join_choose)

    def _join_choose(self) -> None:
        """Adopt the best head heard since probing (offers update
        ``known_heads``); fall back to a surrogate associate."""
        if not self.alive or self.state.status is not NodeStatus.BOOTUP:
            return
        if self.known_heads:
            self._choose_best_known_head()
            if self.state.status is NodeStatus.ASSOCIATE:
                return
        # No head in range: a surrogate associate would be adopted here
        # (recorded during the probe window by _on_associatejoinoffer).
        surrogate = getattr(self, "_surrogate_offer", None)
        if surrogate is not None:
            offer, sender = surrogate
            self.state.status = NodeStatus.ASSOCIATE
            self.state.surrogate_of = sender
            self.state.head_id = offer.head_id
            self.state.head_position = offer.position
            self.state.head_last_heard = self.rt.sim.now
            # Commit through the surrogate, which relays our presence
            # to the cell head.
            self.rt.radio.unicast(
                self.node_id,
                sender,
                JoinAccept(
                    sender=self.node_id,
                    position=self.position,
                    via_surrogate=True,
                ),
            )
            self.rt.trace(
                "associate.join",
                self.node_id,
                head=offer.head_id,
                surrogate=sender,
            )
            self._surrogate_offer = None

    # ------------------------------------------------------------------
    # BIG_SLIDE / resume
    # ------------------------------------------------------------------

    def _grant_proxy(self, head_id: NodeId) -> None:
        if self._proxy_id == head_id:
            return
        if self._proxy_id is not None:
            self.rt.radio.unicast(
                self.node_id, self._proxy_id, ProxyRevoke(sender=self.node_id)
            )
        self._proxy_id = head_id
        self.rt.radio.unicast(
            self.node_id,
            head_id,
            ProxyGrant(sender=self.node_id, root_epoch=self.state.root_epoch),
        )
        self.rt.trace("proxy.grant", self.node_id, proxy=head_id)

    def _big_await_resume(self) -> None:
        """The big node in *big_slide*/*big_move* watches for a cell
        whose current IL has come within R_t of its position and
        reclaims headship there."""
        state = self.state
        for info in self.known_heads.values():
            if (
                self.position.distance_to(info.il)
                <= self.cfg.radius_tolerance
            ):
                self.rt.radio.unicast(
                    self.node_id,
                    info.node_id,
                    ReplacingHead(sender=self.node_id, position=self.position),
                )
                state.status = NodeStatus.WORK
                state.cell_axial = info.axial
                state.oil = self.rt.lattice.point(info.axial)
                state.current_il = info.il
                state.icc_icp = (0, 0) if info.il.is_close(
                    state.oil, tol=1e-6
                ) else state.icc_icp
                state.parent_id = self.node_id
                state.hops_to_root = 0
                state.head_id = None
                # Resume with a strictly higher epoch than anything
                # heard while away: any roots regenerated during the
                # outage demote to us on first contact.
                state.root_epoch = self._next_root_epoch()
                state.root_heard_at = self.rt.sim.now
                self._head_since = self.rt.sim.now
                if self._proxy_id is not None:
                    self.rt.radio.unicast(
                        self.node_id,
                        self._proxy_id,
                        ProxyRevoke(sender=self.node_id),
                    )
                    self._proxy_id = None
                self.rt.trace("big.resume", self.node_id, axial=info.axial)
                return
        # Keep the proxy pointed at the closest fresh head.
        if self.known_heads:
            self._away_heard = self.rt.sim.now
            closest = min(
                self.known_heads.values(),
                key=lambda info: (
                    self.position.distance_to(info.position),
                    info.node_id,
                ),
            )
            self._grant_proxy(closest.node_id)
            return
        # Total collapse: the whole structure dissolved (e.g. a jam
        # over the entire field) and there is no head left to proxy
        # through or resume into — every small node is waiting in
        # boot-up for an organiser.  Without this reseed the big node
        # would wait forever in the away status: the mirror image of
        # the pre-root-liveness wedge.  Re-become the root (with a
        # strictly higher epoch, so any stale view demotes to us) and
        # restart HEAD_ORG from scratch.
        now = self.rt.sim.now
        if now - self._away_heard > 3.0 * self.cfg.failure_timeout:
            if self._proxy_id is not None:
                self.rt.radio.unicast(
                    self.node_id,
                    self._proxy_id,
                    ProxyRevoke(sender=self.node_id),
                )
                self._proxy_id = None
            self.rt.trace("big.reseed", self.node_id)
            self.become_root()

    # ------------------------------------------------------------------
    # message handlers (new in GS3-D)
    # ------------------------------------------------------------------

    def _on_headintraalive(self, msg: HeadIntraAlive, sender: NodeId) -> None:
        self._remember_head(
            sender, msg.position, msg.current_il, msg.axial, msg.hops_to_root
        )
        state = self.state
        if state.status.is_head_like:
            self._update_neighbor(msg, sender)
            return
        if state.status in (NodeStatus.BIG_SLIDE, NodeStatus.BIG_MOVE):
            return
        if state.status is NodeStatus.BOOTUP:
            return
        # Associate branch.
        if sender == state.head_id:
            state.head_last_heard = self.rt.sim.now
            state.head_position = msg.position
            state.cell_axial = msg.axial
            state.oil = msg.oil
            state.current_il = msg.current_il
            state.icc_icp = msg.icc_icp
            if msg.root_position is not None:
                state.root_position = msg.root_position
            # Inherit the head's root view so a later claim starts
            # from an honest freshness value.
            self._merge_root_freshness(msg.root_epoch, msg.root_heard_at)
            state.known_candidates = msg.candidates
            state.is_candidate = self.node_id in msg.candidates
            state.candidate_rank = (
                msg.candidates.index(self.node_id)
                if state.is_candidate
                else None
            )
            self._cancel_claim()
            self.rt.radio.unicast(
                self.node_id,
                sender,
                AssociateAlive(sender=self.node_id, position=self.position),
            )
        elif self._is_better_head(msg.position, sender):
            previous = state.head_id
            state.head_id = sender
            state.head_position = msg.position
            state.head_last_heard = self.rt.sim.now
            state.cell_axial = msg.axial
            state.oil = msg.oil
            state.current_il = msg.current_il
            state.icc_icp = msg.icc_icp
            if msg.root_position is not None:
                state.root_position = msg.root_position
            self._merge_root_freshness(msg.root_epoch, msg.root_heard_at)
            state.known_candidates = msg.candidates
            state.is_candidate = self.node_id in msg.candidates
            state.surrogate_of = None
            self._cancel_claim()
            if previous is not None:
                self.rt.radio.unicast(
                    self.node_id, previous, AssociateRetreat(sender=self.node_id)
                )
            self.rt.radio.unicast(
                self.node_id,
                sender,
                AssociateAlive(sender=self.node_id, position=self.position),
            )
            self.rt.trace(
                "associate.join", self.node_id, head=sender, previous=previous
            )

    def _update_neighbor(self, msg, sender: NodeId) -> None:
        """Record a neighbouring head's heartbeat in the neighbour table."""
        state = self.state
        if state.cell_axial is None:
            return
        axial = msg.axial
        sender_position = getattr(msg, "position", None) or getattr(
            msg, "head_position", None
        )
        if sender_position is None:
            return
        if axial == state.cell_axial and sender != self.node_id:
            # Two live heads for one cell (e.g. after a healed
            # partition, or a claim raced by an associate with stale
            # state).  Cells only ever shift *forward* along the
            # <ICC, ICP> spiral, so the head with the higher (newer)
            # address carries the current cell state and wins; at equal
            # addresses the closer-to-IL head (then lower id) wins.
            their_icc = getattr(msg, "icc_icp", state.icc_icp)
            if their_icc != state.icc_icp:
                if their_icc > state.icc_icp:
                    self._step_down_to_associate(sender, sender_position)
                return
            mine = (
                state.current_il.distance_to(self.position),
                self.node_id,
            )
            theirs = (
                sender_position.distance_to(state.current_il),
                sender,
            )
            if theirs < mine:
                self._step_down_to_associate(sender, sender_position)
            return
        if hex_distance(axial, state.cell_axial) != 1:
            return
        il = getattr(msg, "il", None) or getattr(msg, "current_il", None)
        is_root = bool(getattr(msg, "is_root", False))
        hops = 0 if is_root else msg.hops_to_root
        root_epoch = getattr(msg, "root_epoch", 0)
        state.neighbor_heads[axial] = NeighborInfo(
            node_id=sender,
            axial=axial,
            il=il,
            position=sender_position,
            hops_to_root=hops,
            icc_icp=msg.icc_icp,
            last_heard=self.rt.sim.now,
            root_epoch=root_epoch,
            root_heard_at=getattr(msg, "root_heard_at", None),
        )
        # Learn the root's position from upstream: our parent and any
        # root-flagged sender are authoritative — unless they serve an
        # older epoch than ours (a demoted root's last beats must not
        # drag the believed root position backwards).
        root_position = getattr(msg, "root_position", None)
        if (
            root_position is not None
            and (sender == state.parent_id or is_root)
            and root_epoch >= state.root_epoch
        ):
            state.root_position = root_position
        # Re-evaluate the parent choice (F1.2: the head graph is a
        # minimum-distance spanning tree of G_hn towards the root).
        self._adopt_best_parent()

    def _on_headinteralive(self, msg: HeadInterAlive, sender: NodeId) -> None:
        self._remember_head(
            sender,
            msg.position,
            msg.il,
            msg.axial,
            0 if msg.is_root else msg.hops_to_root,
            msg.root_epoch,
            msg.root_heard_at,
        )
        if not self.state.status.is_head_like:
            return
        self._reconcile_roots(msg, sender)
        # Reconciliation may have demoted us (handback): re-check.
        if self.state.status.is_head_like:
            self._update_neighbor(msg, sender)

    def _reconcile_roots(self, msg: HeadInterAlive, sender: NodeId) -> None:
        """Duplicate-root reconciliation (multibig merge machinery).

        When two roots meet — after a healed partition, or when the
        big node resurfaces among regenerated roots — the lower
        :func:`~repro.core.multibig.root_rank` wins: newer epoch first,
        then the big node over any regenerated root, then lowest id.
        The loser demotes: a regenerated (small) root simply rejoins
        the tree; the big node hands its cell back BIG_SLIDE-style and
        re-claims later with a fresh epoch via ``_big_await_resume``.
        """
        if not (self.is_root or self.is_proxy):
            return
        from .multibig import root_rank

        state = self.state
        if msg.is_root:
            sender_node = self.rt.network.get(sender)
            sender_is_big = sender_node is not None and sender_node.is_big
            theirs = root_rank(msg.root_epoch, sender_is_big, sender)
        elif msg.root_epoch > state.root_epoch:
            # A non-root neighbour already serves a strictly newer
            # root: ours is obsolete even though we cannot hear the
            # winner directly.
            theirs = root_rank(msg.root_epoch, False, sender)
        else:
            return
        mine = root_rank(state.root_epoch, self.is_big, self.node_id)
        if theirs >= mine:
            return
        self.rt.trace(
            "root.handback",
            self.node_id,
            to=sender,
            epoch=msg.root_epoch,
        )
        if self.is_big:
            self._step_down_to_associate(sender, msg.position)
            return
        self.is_proxy = False
        state.parent_id = None
        self._parent_ok_since = self.rt.sim.now
        self._root_seek_since = None
        self._merge_root_freshness(msg.root_epoch, msg.root_heard_at)
        self._adopt_best_parent()

    def _on_rootseek(self, msg: RootSeek, sender: NodeId) -> None:
        """Answer a ROOT_SEEK probe — but only from a *fresh* root view.

        A wedge of mutually stale heads must not echo each other back
        to apparent health; only heads that are the root, deputise for
        it, or hold an unexpired root stamp respond.
        """
        if msg.max_epoch_heard > self._max_epoch_heard:
            self._max_epoch_heard = msg.max_epoch_heard
        state = self.state
        if not state.status.is_head_like:
            return
        if state.parent_id == sender:
            return  # our own parent cannot adopt us back (cycle)
        now = self.rt.sim.now
        fresh = (
            self.is_root
            or self.is_proxy
            or (
                state.root_heard_at is not None
                and now - state.root_heard_at <= self.cfg.root_stale_horizon
            )
        )
        if not fresh:
            return
        self.rt.radio.unicast(
            self.node_id,
            sender,
            HeadInterAlive(
                sender=self.node_id,
                position=self.position,
                axial=state.cell_axial,
                il=state.current_il,
                icc_icp=state.icc_icp,
                hops_to_root=state.hops_to_root,
                parent_id=state.parent_id,
                is_root=self.is_root or self.is_proxy,
                root_position=self.root_position,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
        )

    def _on_associatealive(self, msg: AssociateAlive, sender: NodeId) -> None:
        if not self.state.status.is_head_like:
            return
        self.state.associate_positions[sender] = msg.position
        self._associate_last_heard[sender] = self.rt.sim.now

    def _on_associateretreat(self, msg: AssociateRetreat, sender: NodeId) -> None:
        if not self.state.status.is_head_like:
            return
        self.state.associate_positions.pop(sender, None)
        self._associate_last_heard.pop(sender, None)
        self.state.candidate_ids.discard(sender)

    def _on_headretreat(self, msg: HeadRetreat, sender: NodeId) -> None:
        state = self.state
        if state.status.is_head_like:
            return
        if state.status in (NodeStatus.BIG_SLIDE, NodeStatus.BIG_MOVE):
            return
        if sender != state.head_id:
            return
        new_il = msg.new_il if msg.new_il is not None else state.current_il
        new_icc = (
            msg.new_icc_icp if msg.new_icc_icp is not None else state.icc_icp
        )
        state.current_il = new_il
        state.icc_icp = new_icc
        state.known_candidates = msg.new_candidates
        state.is_candidate = self.node_id in msg.new_candidates
        if msg.new_candidates and msg.new_candidates[0] == self.node_id:
            # We are the designated successor: take over immediately.
            self._become_cell_head_by_claim()
        else:
            if msg.new_candidates:
                state.head_id = msg.new_candidates[0]
                state.head_position = None
            state.head_last_heard = self.rt.sim.now  # patience for the claim

    def _on_headclaim(self, msg: HeadClaim, sender: NodeId) -> None:
        self._remember_head(
            sender,
            msg.position,
            msg.current_il,
            msg.axial,
            msg.hops_to_root,
            msg.root_epoch,
            msg.root_heard_at,
        )
        state = self.state
        if state.status.is_head_like:
            if msg.axial == state.cell_axial and sender != self.node_id:
                # Duplicate heads for one cell: the better-ranked
                # candidate (closer to the IL, then lower id) wins.
                mine = (
                    state.current_il.distance_to(self.position),
                    self.node_id,
                )
                theirs = (
                    msg.current_il.distance_to(msg.position),
                    sender,
                )
                if theirs < mine:
                    self._step_down_to_associate(sender, msg.position)
                return
            self._update_neighbor(msg, sender)
            return
        if state.status is NodeStatus.ASSOCIATE and msg.axial == state.cell_axial:
            state.head_id = sender
            state.head_position = msg.position
            state.head_last_heard = self.rt.sim.now
            state.current_il = msg.current_il
            state.icc_icp = msg.icc_icp
            if msg.root_position is not None:
                state.root_position = msg.root_position
            self._merge_root_freshness(msg.root_epoch, msg.root_heard_at)
            self._cancel_claim()
            self.rt.radio.unicast(
                self.node_id,
                sender,
                AssociateAlive(sender=self.node_id, position=self.position),
            )

    def _on_cellabandoned(self, msg: CellAbandoned, sender: NodeId) -> None:
        if (
            self.state.status is NodeStatus.ASSOCIATE
            and sender == self.state.head_id
        ):
            self._reset_to_bootup()

    def _on_headdisconnected(self, msg: HeadDisconnected, sender: NodeId) -> None:
        if (
            self.state.status is NodeStatus.ASSOCIATE
            and sender == self.state.head_id
        ):
            self._reset_to_bootup()

    def _on_headretreatcorrupted(
        self, msg: HeadRetreatCorrupted, sender: NodeId
    ) -> None:
        state = self.state
        if state.status is NodeStatus.ASSOCIATE and sender == state.head_id:
            # Treat like a failed head: candidates elect a successor.
            state.head_last_heard = -math.inf
            return
        if state.status.is_head_like:
            # Drop the corrupted head from our tables.
            for axial, info in list(state.neighbor_heads.items()):
                if info.node_id == sender:
                    del state.neighbor_heads[axial]
            self.forget_head(sender)

    def _on_joinprobe(self, msg: JoinProbe, sender: NodeId) -> None:
        state = self.state
        if state.status.is_head_like:
            self.rt.radio.unicast(
                self.node_id,
                sender,
                HeadJoinOffer(
                    sender=self.node_id,
                    position=self.position,
                    il=state.current_il,
                    axial=state.cell_axial,
                    icc_icp=state.icc_icp,
                ),
            )
        elif state.status is NodeStatus.ASSOCIATE and state.head_id is not None:
            self.rt.radio.unicast(
                self.node_id,
                sender,
                AssociateJoinOffer(
                    sender=self.node_id,
                    position=self.position,
                    head_id=state.head_id,
                ),
            )

    def _on_headjoinoffer(self, msg: HeadJoinOffer, sender: NodeId) -> None:
        # Hops unknown from the offer; a conservative large value keeps
        # parent selection honest until a heartbeat refreshes it.
        self._remember_head(
            sender,
            msg.position,
            msg.il,
            msg.axial,
            1 << 20,
            msg.root_epoch,
            msg.root_heard_at,
        )

    def _on_associatejoinoffer(
        self, msg: AssociateJoinOffer, sender: NodeId
    ) -> None:
        if self.state.status is NodeStatus.BOOTUP:
            self._surrogate_offer = (msg, sender)

    def _on_replacinghead(self, msg: ReplacingHead, sender: NodeId) -> None:
        if not self.state.status.is_head_like:
            return
        sender_node = self.rt.network.get(sender)
        if sender_node is None or not sender_node.is_big:
            return
        # The big node takes our cell back (end of BIG_SLIDE/BIG_MOVE).
        self.is_proxy = False
        self._step_down_to_associate(sender, msg.position)
        self.rt.trace("head.retreat", self.node_id, replaced_by=sender)

    def _on_proxygrant(self, msg: ProxyGrant, sender: NodeId) -> None:
        if self.state.status.is_head_like:
            self.is_proxy = True
            self.state.parent_id = self.node_id
            self.state.hops_to_root = 0
            # Epoch continuity across the slide: the proxy carries the
            # big node's epoch forward rather than booting a new one.
            self.state.root_epoch = max(
                self.state.root_epoch, msg.root_epoch, 1
            )
            self.state.root_heard_at = self.rt.sim.now
            self.rt.trace("proxy.accept", self.node_id)

    def _on_proxyrevoke(self, msg: ProxyRevoke, sender: NodeId) -> None:
        if self.is_proxy:
            self.is_proxy = False
            self.state.parent_id = None
            self._adopt_best_parent()

    def _on_newchildhead(self, msg: NewChildHead, sender: NodeId) -> None:
        if self.state.status.is_head_like:
            self.state.children.add(sender)

    def _on_parentseek(self, msg: ParentSeek, sender: NodeId) -> None:
        """A head lost its parent: answer with our state (*parent_seek_ack*)."""
        state = self.state
        if not state.status.is_head_like:
            return
        if state.parent_id == sender:
            return  # our own parent cannot adopt us back (cycle)
        self.rt.radio.unicast(
            self.node_id,
            sender,
            ParentSeekAck(
                sender=self.node_id,
                axial=state.cell_axial,
                hops_to_root=state.hops_to_root,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
        )
        # Also resend a full heartbeat so the seeker learns our
        # position and IL for the adoption decision.
        self.rt.radio.unicast(
            self.node_id,
            sender,
            HeadInterAlive(
                sender=self.node_id,
                position=self.position,
                axial=state.cell_axial,
                il=state.current_il,
                icc_icp=state.icc_icp,
                hops_to_root=state.hops_to_root,
                parent_id=state.parent_id,
                is_root=self.is_root or self.is_proxy,
                root_position=self.root_position,
                root_epoch=state.root_epoch,
                root_heard_at=state.root_heard_at,
            ),
        )

    def _on_parentseekack(self, msg: ParentSeekAck, sender: NodeId) -> None:
        # The accompanying HeadInterAlive populates the neighbour
        # table; the ack itself just confirms willingness.
        if self.state.status.is_head_like and self.state.parent_id is None:
            self._adopt_best_parent()

    def _on_joinaccept(self, msg: JoinAccept, sender: NodeId) -> None:
        """A booting node committed to us (head) or through us
        (surrogate associate): forward its heartbeat to our head."""
        state = self.state
        if state.status.is_head_like:
            state.associate_positions[sender] = msg.position
            self._associate_last_heard[sender] = self.rt.sim.now
        elif (
            state.status is NodeStatus.ASSOCIATE
            and msg.via_surrogate
            and state.head_id is not None
        ):
            self.rt.radio.unicast(
                self.node_id,
                state.head_id,
                AssociateAlive(sender=sender, position=msg.position),
            )

    def _on_sanitycheckreq(self, msg: SanityCheckReq, sender: NodeId) -> None:
        """Answer a neighbour's sanity probe if our own state is valid."""
        if not self.state.status.is_head_like:
            return
        if self._state_is_sane():
            self.rt.radio.unicast(
                self.node_id,
                sender,
                SanityCheckValid(
                    sender=self.node_id,
                    axial=self.state.cell_axial,
                    il=self.state.current_il,
                    icc_icp=self.state.icc_icp,
                ),
            )

    def _on_sanitycheckvalid(self, msg: SanityCheckValid, sender: NodeId) -> None:
        """A neighbour asserts validity: if our geometric relation to it
        is still broken, the corruption is ours."""
        state = self.state
        if not state.status.is_head_like or state.current_il is None:
            return
        # The hexagonal relation is only defined between *adjacent*
        # cells; the request broadcast also reaches heads further out.
        if state.cell_axial is None or hex_distance(
            msg.axial, state.cell_axial
        ) != 1:
            return
        if not self._relation_violated(msg.il, msg.icc_icp):
            return
        self.rt.trace(
            "sanity.reset", self.node_id, axial=state.cell_axial
        )
        self.rt.radio.broadcast(
            self.node_id,
            HeadRetreatCorrupted(sender=self.node_id),
            tx_range=self.cfg.cell_broadcast_range,
        )
        self._reset_to_bootup()

    def _relation_violated(self, their_il, their_icc_icp) -> bool:
        """Whether the I2 hexagonal relation to a neighbour is broken."""
        state = self.state
        if state.current_il is None:
            return True
        distance = state.current_il.distance_to(their_il)
        if their_icc_icp == state.icc_icp:
            expected = self.cfg.lattice_spacing
            return abs(distance - expected) > 2.0 * self.cfg.radius_tolerance
        return not 0.0 < distance <= 2.0 * self.cfg.lattice_spacing

    # ------------------------------------------------------------------
    # GS3-S hook overrides
    # ------------------------------------------------------------------

    def on_message(self, payload, sender: NodeId) -> None:
        """GS3-S's receive handler, with GS3-D's bookkeeping first (in
        the same call: one frame per delivery)."""
        self._last_activity = self.rt.sim.now
        # Track the highest epoch ever heard from *any* message so a
        # later regeneration or resume always outbids it.
        epoch = payload.root_epoch
        if epoch > self._max_epoch_heard:
            self._max_epoch_heard = epoch
        if not self.phys.alive:
            return
        handler = self.handlers[type(payload)]
        if handler is not None:
            handler(self, payload, sender)

    def _on_org(self, msg, sender: NodeId) -> None:
        super()._on_org(msg, sender)
        if self.state.status.is_head_like:
            self._update_neighbor(msg, sender)

    def on_became_head(self) -> None:
        self._head_since = self.rt.sim.now

    def on_joined_cell(self, previous_head: Optional[NodeId]) -> None:
        """Announce ourselves to the adopted head so heartbeats start."""
        state = self.state
        if previous_head is not None and previous_head != state.head_id:
            self.rt.radio.unicast(
                self.node_id, previous_head, AssociateRetreat(sender=self.node_id)
            )
        if state.head_id is not None:
            state.head_last_heard = self.rt.sim.now
            self.rt.radio.unicast(
                self.node_id,
                state.head_id,
                AssociateAlive(sender=self.node_id, position=self.position),
            )

    def _candidate_ils(self):
        """Shift neighbour ILs by the cell's slide offset.

        Under coherent cell shift every cell's current IL is displaced
        from its OIL by the same <ICC, ICP> offset, so neighbour ILs
        are the lattice points plus our own offset.
        """
        ils = super()._candidate_ils()
        state = self.state
        if (
            self.cfg.anchor_on_il
            and state.oil is not None
            and state.current_il is not None
        ):
            offset = state.current_il - state.oil
            if offset.norm() > 1e-9:
                ils = [(axial, il + offset) for axial, il in ils]
        return ils
