"""The BGP speaker: protocol engine + update-processing model.

Each router runs one :class:`BGPSpeaker`.  The speaker models what the paper
measures:

* a single update processor with a FIFO (or batched) input queue and
  uniform(1 ms, 30 ms) service times — the overload bottleneck;
* per-peer MRAI timers (per-destination as an option) with RFC-1771 jitter;
  withdrawals bypass the MRAI by default;
* the standard RIB pipeline: store in Adj-RIB-In, run the decision process,
  update Loc-RIB, and schedule (MRAI-governed) advertisements whose content
  is computed *at send time* against Adj-RIB-Out, so superseded changes
  collapse into a single message per peer and no-op updates are suppressed.

Paths are the cells of :mod:`repro.bgp.routes`: an eBGP export is one new
cell in front of the selected path, and loop checks walk the chain.  Trace
records carry the flat tuple, built only while tracing is on.

Failure handling: ``peer_down`` flushes everything learned from the peer and
re-selects affected destinations; ``fail`` silences the node itself.  A
failure is permanent, so both release the tables it leaves unreachable: a
torn-down session its Adj-RIB-Out, timers and pending work, a failed
router its RIBs and queue as well.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.bgp.config import BGPConfig
from repro.bgp.damping import DampingState
from repro.bgp.messages import TracedUpdate, Update
from repro.bgp.mrai import MRAIController
from repro.bgp.queues import QueueDiscipline, make_queue
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Path, Route, path_contains, path_tuple, prepend
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.network import BGPNetwork

class _NeverSent:
    """The Adj-RIB-Out mark of "never advertised", as opposed to an
    advertised withdrawal (``None``).  There is one, tested with ``is``,
    and it pickles by name, so a copied network still finds it."""

    def __reduce__(self) -> str:
        return "_NEVER_SENT"


_NEVER_SENT = _NeverSent()

#: Timer scope of per-peer MRAI: one timer governs every destination.  In
#: per-destination mode the scope is the destination itself.
_PEER_SCOPE = -1


class PeerState:
    """Per-peer session state held by a speaker."""

    __slots__ = (
        "peer_id",
        "asn",
        "delay",
        "ebgp",
        "session_up",
        "timers",
        "pending",
        "pending_cause",
        "adj_rib_out",
    )

    def __init__(
        self, peer_id: int, asn: int, delay: float, ebgp: bool, prefixes: int
    ) -> None:
        self.peer_id = peer_id
        self.asn = asn
        self.delay = delay
        self.ebgp = ebgp
        self.session_up = True
        #: MRAI timers by scope, created on first start: the single
        #: ``_PEER_SCOPE`` entry in per-peer mode (the Internet-prevalent
        #: one), one entry per destination in per-destination mode.
        self.timers: Dict[int, Timer] = {}
        #: One flag per destination: 1 while a change waits for the MRAI
        #: to expire.
        self.pending = bytearray(prefixes)
        #: Provenance of pending changes (dest -> cause uid).  Allocated
        #: lazily and only while causal tracing is enabled, so the
        #: untraced path never touches it.
        self.pending_cause: Optional[Dict[int, int]] = None
        #: What was last sent, indexed by destination: a path, None for
        #: "withdrawn", or ``_NEVER_SENT``.
        self.adj_rib_out: List[object] = [_NEVER_SENT] * prefixes

    def release(self) -> None:
        """Drop the routing exchange with this peer for good (a session
        never comes back up): timers stopped and dropped, and no pending
        flags or Adj-RIB-Out kept.  What was received from the peer is
        the Adj-RIB-In's to drop."""
        for timer in self.timers.values():
            timer.stop()
        self.timers = {}
        self.pending = bytearray()
        self.pending_cause = None
        self.adj_rib_out = []


class BGPSpeaker:
    """One BGP router."""

    def __init__(
        self,
        network: "BGPNetwork",
        node_id: int,
        asn: int,
        config: BGPConfig,
        controller: MRAIController,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.node_id = node_id
        self.asn = asn
        self.config = config
        self.controller = controller
        self.alive = True

        self.adj_rib_in = AdjRibIn(network.prefix_count)
        self.loc_rib = LocRib(self.adj_rib_in)
        self.own_prefixes: Set[int] = set()
        self.peers: Dict[int, PeerState] = {}

        self.queue: QueueDiscipline = make_queue(
            config.queue_discipline, network.prefix_count, config.tcp_batch_size
        )
        self._busy = False
        self._busy_since = 0.0
        self._svc_rng = network.sim.rng.get(f"svc/{node_id}")
        self._jitter_rng = network.sim.rng.get(f"jitter/{node_id}")
        # Structured metrics (cached children so the hot path is a None
        # check + method call; all None when observability is off).
        metrics = network.metrics
        if metrics is not None:
            from repro.obs.metrics import (
                DEFAULT_COUNT_BUCKETS,
                DEFAULT_TIME_BUCKETS,
            )

            self._m_processed = metrics.counter(
                "updates_processed", node=node_id
            )
            self._m_service = metrics.histogram(
                "update_service_seconds", buckets=DEFAULT_TIME_BUCKETS
            )
            self._m_batch = metrics.histogram(
                "batch_updates", buckets=DEFAULT_COUNT_BUCKETS
            )
        else:
            self._m_processed = None
            self._m_service = None
            self._m_batch = None
        #: Provenance context: uid of the event whose processing the
        #: speaker is currently inside, stamped onto every update sent
        #: from that context.  Only maintained while causal tracing is
        #: enabled; stays -1 (and costs nothing) otherwise.
        self._cause_uid = -1
        #: Flap-damping penalty, dest -> peer -> state; only populated when
        #: the config enables damping.
        self._damping: Dict[int, Dict[int, DampingState]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_peer(self, peer_id: int, asn: int, delay: float, ebgp: bool) -> None:
        if peer_id in self.peers:
            raise ValueError(f"duplicate peer {peer_id} at node {self.node_id}")
        ps = PeerState(peer_id, asn, delay, ebgp, self.network.prefix_count)
        self.peers[peer_id] = ps
        self.adj_rib_in.add_peer(peer_id, ebgp)

    def originate(self, prefix: int) -> None:
        """Start advertising ``prefix`` as locally originated."""
        if not 0 <= prefix < self.network.prefix_count:
            raise ValueError(
                f"prefix {prefix} is not a destination of this network "
                f"(0 .. {self.network.prefix_count - 1}: its AS numbers)"
            )
        self.own_prefixes.add(prefix)
        self._reselect(prefix)

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def unfinished_work(self) -> float:
        """Queue length x mean service time — the dynamic scheme's signal."""
        return len(self.queue) * self.config.mean_processing_delay

    # ------------------------------------------------------------------
    # Receive path / processing model
    # ------------------------------------------------------------------
    def receive(self, msg: Update) -> None:
        """Deliver a message from the wire into the input queue."""
        if not self.alive:
            return
        ps = self.peers.get(msg.sender)
        if ps is None or not ps.session_up:
            self.network.counters["updates_dropped_dead_session"] += 1
            return
        self.network.counters["updates_received"] += 1
        self.queue.push(msg)
        now = self.sim.now
        self.controller.on_update_received(now)
        self.controller.on_queue_sample(len(self.queue), now)
        if not self._busy:
            self._begin_service()

    def _begin_service(self) -> None:
        batch, dropped = self.queue.pop_batch()
        if dropped:
            self.network.counters["updates_dropped_stale"] += dropped
        lo, hi = self.config.processing_delay_range
        if hi <= 0.0:
            service = 0.0
        elif len(batch) == 1:
            # FIFO (batch size 1) is the common case: skip the generator
            # machinery.  Same single RNG draw, so trajectories match.
            service = self._svc_rng.uniform(lo, hi)
        else:
            service = sum(self._svc_rng.uniform(lo, hi) for __ in batch)
        if self._m_service is not None:
            self._m_service.observe(service)
            self._m_batch.observe(len(batch))
        self._busy = True
        self._busy_since = self.sim.now
        self.sim.schedule(service, self._complete_batch, batch)

    def _complete_batch(self, batch: List[Update]) -> None:
        if not self.alive:
            return
        now = self.sim.now
        self._busy = False
        self.controller.on_busy_interval(self._busy_since, now)
        affected: Set[int] = set()
        if batch:
            self.network.counters["updates_processed"] += len(batch)
        # Per destination, the received update that last changed the RIB-In
        # (uid -1 throughout when untraced), so the advertisements the
        # reselection emits carry their cause.
        cause_by_dest: Dict[int, int] = {}
        for msg in batch:
            if self._apply_update(msg):
                affected.add(msg.dest)
                cause_by_dest[msg.dest] = msg.uid
        for dest in affected:
            self._cause_uid = cause_by_dest[dest]
            self._reselect(dest)
        self._cause_uid = -1
        self.controller.on_queue_sample(len(self.queue), now)
        if self._m_processed is not None:
            self._m_processed.inc(len(batch))
        self.network.note_activity()
        if len(self.queue):
            self._begin_service()

    def _apply_update(self, msg: Update) -> bool:
        """Fold one update into Adj-RIB-In; True when the RIB-In changed."""
        ps = self.peers.get(msg.sender)
        if ps is None or not ps.session_up:
            # The session died while the message sat in the queue.
            self.network.counters["updates_dropped_dead_session"] += 1
            return False
        rib_in = self.adj_rib_in
        if msg.is_withdrawal:
            changed = rib_in.withdraw(msg.dest, msg.sender)
            if changed and ps.ebgp and self.config.damping is not None:
                self._record_flap(ps, msg.dest, withdrawal=True)
            return changed
        path = msg.path
        assert path is not None
        if ps.ebgp:
            # Receiver-side AS-path loop detection (path_contains, inlined
            # on the hot path): an infeasible route; any previous route
            # from this peer is implicitly replaced.
            asn = self.asn
            hop = path
            while hop and hop[0] != asn:
                hop = hop[1]
            if hop:
                self.network.counters["updates_loop_rejected"] += 1
                return rib_in.withdraw(msg.dest, msg.sender)
        existing = rib_in.get(msg.dest, msg.sender)
        if existing == path:
            return False
        if ps.ebgp and self.config.damping is not None and existing is not None:
            # RFC 2439: route changes are flaps; the *first* advertisement
            # of a destination carries no penalty.
            self._record_flap(ps, msg.dest, withdrawal=False)
        rank = 0
        if self.config.policy is not None and path:
            # Import policy: rank by preference class; None rejects.  The
            # ranking neighbor AS is the first hop of the AS path — for
            # eBGP that is the sending peer's AS, for iBGP it is the eBGP
            # neighbor the route entered this AS through, so every router
            # of the AS ranks consistently.
            imported = self.config.policy.import_rank(self.asn, path[0])
            if imported is None:
                self.network.counters["updates_policy_rejected"] += 1
                return rib_in.withdraw(msg.dest, msg.sender)
            rank = imported
        rib_in.store(msg.dest, msg.sender, path, rank)
        return True

    # ------------------------------------------------------------------
    # Route flap damping (RFC 2439)
    # ------------------------------------------------------------------
    def _record_flap(self, ps: PeerState, dest: int, withdrawal: bool) -> None:
        states = self._damping.setdefault(dest, {})
        state = states.get(ps.peer_id)
        if state is None:
            state = states[ps.peer_id] = DampingState(self.config.damping)
        was_suppressed = state.suppressed
        now = self.sim.now
        if withdrawal:
            state.record_withdrawal(now)
        else:
            state.record_readvertisement(now)
        if state.suppressed and not was_suppressed:
            self.network.counters["routes_suppressed"] += 1
            delay = state.time_until_reuse(now)
            assert delay is not None
            # Small epsilon so the decayed penalty is strictly below reuse.
            self.sim.schedule(delay + 1e-6, self._reuse_check, ps.peer_id, dest)

    def _reuse_check(self, peer_id: int, dest: int) -> None:
        if not self.alive:
            return
        state = self._damping.get(dest, {}).get(peer_id)
        if state is None:
            return
        if state.maybe_reuse(self.sim.now):
            self.network.counters["routes_reused"] += 1
            self._reselect(dest)
        elif state.suppressed:
            delay = state.time_until_reuse(self.sim.now)
            assert delay is not None
            self.sim.schedule(delay + 1e-6, self._reuse_check, peer_id, dest)

    def _suppressed_peers(self, dest: int) -> Optional[Set[int]]:
        """Peers whose route for ``dest`` is currently damped."""
        if not self._damping:
            return None
        excluded = {
            peer_id
            for peer_id, state in self._damping.get(dest, {}).items()
            if state.suppressed
        }
        return excluded or None

    # ------------------------------------------------------------------
    # Decision + advertisement scheduling
    # ------------------------------------------------------------------
    def _reselect(self, dest: int) -> None:
        loc = self.loc_rib
        best = self.adj_rib_in.decide(
            dest, self.own_prefixes, self._suppressed_peers(dest)
        )
        if best is None:
            if loc.path[dest] is None:
                return
            peer = path = None
        else:
            peer, path = best
            if loc.path[dest] == path and loc.peer[dest] == peer:
                return
        loc.peer[dest] = peer
        loc.path[dest] = path
        loc.export[dest] = None
        dataplane = self.network.dataplane
        if dataplane is not None:
            dataplane.on_best_route(
                self.node_id, dest, loc.get(dest), self.sim.now
            )
        self.network.counters["route_changes"] += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.emit(
                self.sim.now,
                "route_change",
                self.node_id,
                dest,
                None if path is None else path_tuple(path),
            )
        self.controller.on_destination_changed(dest, self.sim.now)
        self.network.note_activity()
        self._schedule_advertisements(dest)

    def export_route(self, ps: PeerState, dest: int) -> Optional[Path]:
        """The path this node would advertise to ``ps`` for ``dest`` now.

        ``None`` means "no advertisement" (withdraw if something was sent
        before).  Encodes eBGP AS-prepending (one cell in front of the
        selected path, built once per selection), iBGP non-reflection,
        and optional sender-side loop suppression.
        """
        loc = self.loc_rib
        path = loc.path[dest]
        if path is None:
            return None
        if ps.ebgp:
            if self.config.sender_side_loop_detection and path_contains(
                path, ps.asn
            ):
                return None
            if self.config.policy is not None:
                # The first AS on the stored path is the eBGP neighbor the
                # route entered this AS through (None for local origin).
                learned_from = path[0] if path else None
                if not self.config.policy.export_allowed(
                    self.asn, learned_from, ps.asn
                ):
                    return None
            export = loc.export[dest]
            if export is None:
                export = loc.export[dest] = prepend(self.asn, path)
            return export
        # iBGP export: local and eBGP-learned routes only (full-mesh rule:
        # a route learned over iBGP is never re-advertised over iBGP).
        peer = loc.peer[dest]
        if peer is not None and not self.peers[peer].ebgp:
            return None
        return path

    def _schedule_advertisements(self, dest: int) -> None:
        scope = dest if self.config.per_destination_mrai else _PEER_SCOPE
        for ps in self.peers.values():
            if ps.session_up and self._advertise(ps, dest, defer=True):
                self._start_timer(ps, scope)

    def _advertise(self, ps: PeerState, dest: int, defer: bool) -> bool:
        """Bring what ``ps`` was last sent for ``dest`` up to date.

        The content is computed now, against Adj-RIB-Out, so superseded
        changes collapse and no-op updates are suppressed.  With ``defer``
        a change that finds its MRAI timer running waits as pending for
        the expiry; MRAI expiry passes False — it sends a whole burst and
        arms the timer after it.  Returns whether a
        message was sent that the caller must (re)arm the MRAI for:
        advertisements always, withdrawals only under withdrawal rate
        limiting (RFC 1771: MinRouteAdvertisementInterval does not apply
        to withdrawals).
        """
        export = self.export_route(ps, dest)
        last = ps.adj_rib_out[dest]
        if export == last or (export is None and last is _NEVER_SENT):
            # Nothing new to say, or nothing ever advertised to withdraw.
            ps.pending[dest] = 0
            return False
        limited = export is not None or self.config.withdrawal_rate_limiting
        if defer:
            if limited:
                timer = ps.timers.get(
                    dest if self.config.per_destination_mrai else _PEER_SCOPE
                )
                if timer is not None and timer.running:
                    ps.pending[dest] = 1
                    if self.sim.tracer.enabled:
                        if ps.pending_cause is None:
                            ps.pending_cause = {}
                        ps.pending_cause[dest] = self._cause_uid
                    return False
        elif ps.pending_cause is not None:
            # A deferred send is caused by whatever last marked the
            # destination pending while the timer ran.
            self._cause_uid = ps.pending_cause.pop(dest, -1)
        self._send(ps, dest, export)
        ps.pending[dest] = 0
        return limited

    def _advertise_burst(self, ps: PeerState, dests: Iterable[int]) -> None:
        """Send what is due for ``dests`` now, then arm each MRAI scope
        that sent once — the burst counts as one advertisement."""
        per_destination = self.config.per_destination_mrai
        scopes: Dict[int, None] = {}
        for dest in dests:
            if self._advertise(ps, dest, defer=False):
                scopes[dest if per_destination else _PEER_SCOPE] = None
        for scope in scopes:
            self._start_timer(ps, scope)

    def _start_timer(self, ps: PeerState, scope: int) -> None:
        base = self.controller.value()
        if base <= 0.0:
            return
        timer = ps.timers.get(scope)
        if timer is None:
            timer = ps.timers[scope] = Timer(
                self.sim,
                self._mrai_expired,
                ps,
                scope,
                jitter=self.config.mrai_jitter,
                rng=self._jitter_rng,
            )
        timer.start(base)

    def _mrai_expired(self, ps: PeerState, scope: int) -> None:
        """Send what waited on ``scope``: everything pending under the
        per-peer scope, the one destination otherwise."""
        if not self.alive or not ps.session_up:
            return
        if scope == _PEER_SCOPE:
            # The burst sends everything pending, ascending.  Each send
            # clears only its own flag, behind the lazy walk.
            flags = ps.pending
            self._advertise_burst(ps, compress(range(len(flags)), flags))
        elif ps.pending[scope]:
            self._advertise_burst(ps, (scope,))
        self._cause_uid = -1

    def _send(self, ps: PeerState, dest: int, export: Optional[Path]) -> None:
        ps.adj_rib_out[dest] = export
        tracer = self.sim.tracer
        if not tracer.enabled:
            msg = Update(dest, export, self.node_id)
        else:
            msg = TracedUpdate(
                dest,
                export,
                self.node_id,
                self.network.next_uid(),
                self._cause_uid,
            )
            tracer.emit(
                self.sim.now,
                "causality",
                self.node_id,
                "send",
                msg.uid,
                msg.cause_uid,
                dest,
                ps.peer_id,
                None if export is None else path_tuple(export),
            )
        self.network.transmit(self.node_id, ps.peer_id, msg, ps.delay)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def peer_down(self, peer_id: int, cause_uid: int = -1) -> None:
        """Tear down the session to ``peer_id`` and re-select routes.

        ``cause_uid`` is the provenance uid of the failure-injection
        event that killed the session (causal tracing only): every
        update the teardown emits is attributed to it.
        """
        ps = self.peers.get(peer_id)
        if ps is None or not ps.session_up:
            return
        ps.session_up = False
        ps.release()
        self.network.counters["sessions_down"] += 1
        self._cause_uid = cause_uid
        for dest in self.adj_rib_in.drop_peer(peer_id):
            if ps.ebgp and self.config.damping is not None:
                # RFC 2439: route loss through a session reset is a
                # withdrawal flap like any other.
                self._record_flap(ps, dest, withdrawal=True)
            self._reselect(dest)
        self._cause_uid = -1
        self.network.note_activity()

    def fail(self) -> None:
        """Take this router out of service for good.  It keeps its
        ``peers`` keys (``fail_nodes`` walks them) and drops everything
        else per destination: RIBs, queue and damping state, and each
        session's Adj-RIB-Out, timers and pending work.  Reads of the
        released tables answer "no route"."""
        if not self.alive:
            return
        self.alive = False
        self.adj_rib_in = AdjRibIn(0)
        self.loc_rib = LocRib(self.adj_rib_in)
        self.queue = make_queue(
            self.config.queue_discipline, 0, self.config.tcp_batch_size
        )
        self._damping = {}
        for ps in self.peers.values():
            ps.session_up = False
            ps.release()

    # ------------------------------------------------------------------
    # Introspection (tests, validation)
    # ------------------------------------------------------------------
    def best_route(self, dest: int) -> Optional[Route]:
        return self.loc_rib.get(dest)

    def has_pending_work(self) -> bool:
        """Anything still in flight at this node?"""
        if self._busy or len(self.queue):
            return True
        return any(1 in ps.pending for ps in self.peers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BGPSpeaker node={self.node_id} as={self.asn} "
            f"peers={len(self.peers)} routes={len(self.loc_rib)}>"
        )
