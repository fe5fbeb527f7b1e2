"""Data-plane impact monitor: forwarding loops, blackholes, reachability.

Control-plane metrics (convergence delay, message counts) say when the
routers went quiet — not what users felt in between.  During convergence
the *data plane* is transiently broken: packets chase withdrawn paths
into blackholes, or orbit forwarding loops formed by inconsistent
intermediate bests.  :class:`DataPlaneMonitor` watches those effects
form and heal, per (node, destination) pair, directly off the simulated
speakers' best-route changes.

Design constraints (same discipline as spans/causality):

* **Off by default, trajectory bit-identical when on.**  The monitor
  only *reads* simulator state from inside the existing best-route
  update path — it never schedules events, draws random numbers, or
  mutates BGP state, so enabling it cannot perturb a trajectory.  The
  monitors-off cost in the hot path is one attribute read plus a None
  check (``network.dataplane is None``).
* **Incremental, not global rescans.**  :meth:`on_best_route` updates a
  per-destination next-hop table in O(1); affected destinations are
  queued and re-walked lazily, once per distinct simulation timestamp
  (:meth:`_flush`), so a burst of same-instant route changes is
  evaluated exactly once and zero-duration loop/blackhole artifacts
  never appear in the record.

The forwarding model: each speaker forwards traffic for ``dest`` to the
peer its current Loc-RIB best route came from (``Route.peer``); a
locally-originated route (``Route.is_local``) terminates the walk.  Per
destination this induces a functional graph over the alive nodes; every
node is in exactly one state
(:data:`repro.sim.trace.DATAPLANE_STATUSES`):

* ``ok`` — the walk reaches an origin (``hops`` = path length taken),
* ``blackhole`` — the walk dies (no route, or next hop is dead),
* ``loop`` — the walk revisits a node (transient forwarding loop),
* ``down`` — the node itself is failed (not a data-plane event; kept
  separate so dead sources don't inflate unreachability totals).

State *transitions* are appended to :attr:`DataPlaneMonitor.transitions`
as ``(time, node, dest, status, hops)`` tuples;
:class:`repro.analysis.dataplane.DataPlaneTimeline` turns them into
unavailability windows, episode counts, and path-stretch statistics.
A session with a sink receives them as ``dataplane`` trace records
(:meth:`repro.obs.session.TrialObserver.finish_dataplane`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.trace import BLACKHOLE, DOWN, LOOP, OK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.network import BGPNetwork
    from repro.bgp.routes import Route

__all__ = ["DataPlaneMonitor"]

#: A recorded state change: (sim time, node, dest, status, hops-or-None).
Transition = Tuple[float, int, int, str, Optional[int]]


class DataPlaneMonitor:
    """Incremental per-destination forwarding-graph watcher.

    Attach with :meth:`attach` (sets ``network.dataplane`` so the
    speaker hot path finds it), feed it best-route changes and node
    lifecycle events, then :meth:`finalize` to flush the last pending
    evaluation and stamp the observation end time.
    """

    def __init__(self) -> None:
        #: dest -> {node -> forwarding next hop (Route.peer)}.
        self._next_hop: Dict[int, Dict[int, int]] = {}
        #: dest -> nodes whose best route is locally originated.
        self._origins: Dict[int, Set[int]] = {}
        #: Every destination ever seen (origins may be withdrawn later).
        self._dests: Set[int] = set()
        self._alive: Set[int] = set()
        #: Current status/hops per (node, dest) pair.
        self._status: Dict[Tuple[int, int], str] = {}
        self._hops: Dict[Tuple[int, int], Optional[int]] = {}
        #: Destinations touched at :attr:`_pending_time`, awaiting a walk.
        self._pending: Set[int] = set()
        self._pending_time = 0.0
        self.transitions: List[Transition] = []
        self.end_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network: "BGPNetwork") -> None:
        """Register on ``network`` and seed state from its speakers.

        Normally called on a fresh (pre-``start()``) network, but a
        warm network is seeded correctly too: current Loc-RIB bests are
        folded in and evaluated at the current simulation time.
        """
        network.dataplane = self
        now = network.sim.now
        for node_id, speaker in sorted(network.speakers.items()):
            if speaker.alive:
                self._alive.add(node_id)
        for node_id, speaker in sorted(network.speakers.items()):
            if not speaker.alive:
                continue
            for dest, route in speaker.loc_rib.items():
                self._note_route(node_id, dest, route)
        if self._dests:
            self._pending.update(self._dests)
            self._pending_time = now

    # ------------------------------------------------------------------
    # Hooks (called from the simulation hot path — reads only)
    # ------------------------------------------------------------------
    def on_best_route(
        self,
        node_id: int,
        dest: int,
        route: Optional["Route"],
        now: float,
    ) -> None:
        """A speaker's Loc-RIB best for ``dest`` changed to ``route``."""
        if self._pending and now > self._pending_time:
            self._flush()
        self._note_route(node_id, dest, route)
        self._pending.add(dest)
        self._pending_time = now

    def on_nodes_failed(self, node_ids: Iterable[int], now: float) -> None:
        """Nodes died at ``now``: purge their forwarding state everywhere.

        Their own (node, dest) pairs close as ``down`` — kept distinct
        from blackholes so dead sources don't count as unreachability —
        and every destination is re-evaluated at the failure instant
        (any walk may have crossed the dead nodes).
        """
        if self._pending and now > self._pending_time:
            self._flush()
        for node_id in sorted(set(node_ids)):
            if node_id not in self._alive:
                continue
            self._alive.discard(node_id)
            for table in self._next_hop.values():
                table.pop(node_id, None)
            for origins in self._origins.values():
                origins.discard(node_id)
            for dest in sorted(self._dests):
                key = (node_id, dest)
                if key in self._status and self._status[key] != DOWN:
                    self._record(now, node_id, dest, DOWN, None)
        if self._dests:
            self._pending.update(self._dests)
            self._pending_time = now

    def finalize(self, now: float) -> None:
        """Flush the last pending evaluation and stamp the window end."""
        if self._pending:
            self._flush()
        self.end_time = now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_route(
        self, node_id: int, dest: int, route: Optional["Route"]
    ) -> None:
        self._dests.add(dest)
        table = self._next_hop.setdefault(dest, {})
        origins = self._origins.setdefault(dest, set())
        if route is None:
            table.pop(node_id, None)
            origins.discard(node_id)
        elif route.peer is None:
            table.pop(node_id, None)
            origins.add(node_id)
        else:
            table[node_id] = route.peer
            origins.discard(node_id)

    def _flush(self) -> None:
        t = self._pending_time
        for dest in sorted(self._pending):
            self._eval_dest(dest, t)
        self._pending.clear()

    def _eval_dest(self, dest: int, t: float) -> None:
        """Walk the forwarding graph for ``dest`` from every alive node.

        Memoized: each node is walked at most once per evaluation, so
        the total cost is O(alive nodes) per touched destination.
        """
        next_hop = self._next_hop.get(dest, {})
        origins = self._origins.get(dest, set())
        resolved: Dict[int, Tuple[str, Optional[int]]] = {}
        for start in sorted(self._alive):
            if start in resolved:
                continue
            trail: List[int] = []
            trail_set: Set[int] = set()
            node = start
            while True:
                if node in resolved:
                    outcome = resolved[node]
                    break
                if node in origins:
                    outcome = (OK, 0)
                    break
                if node in trail_set:
                    # Walk revisited a node: a forwarding loop.  The
                    # cycle and everything feeding into it all loop.
                    outcome = (LOOP, None)
                    break
                if node not in self._alive:
                    outcome = (BLACKHOLE, None)
                    break
                nxt = next_hop.get(node)
                if nxt is None:
                    outcome = (BLACKHOLE, None)
                    break
                trail.append(node)
                trail_set.add(node)
                node = nxt
            status, hops = outcome
            if not trail:
                resolved[start] = outcome
            else:
                for walked in reversed(trail):
                    if status == OK:
                        hops = (0 if hops is None else hops) + 1
                        resolved[walked] = (OK, hops)
                    else:
                        resolved[walked] = (status, None)
        for node in sorted(self._alive):
            status, hops = resolved[node]
            key = (node, dest)
            if self._status.get(key) != status or self._hops.get(key) != hops:
                self._record(t, node, dest, status, hops)

    def _record(
        self,
        t: float,
        node_id: int,
        dest: int,
        status: str,
        hops: Optional[int],
    ) -> None:
        key = (node_id, dest)
        self._status[key] = status
        self._hops[key] = hops
        self.transitions.append((t, node_id, dest, status, hops))
