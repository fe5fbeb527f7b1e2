"""Routing Information Bases.

Standard BGP structure, laid out peer-major:

* **Adj-RIB-In** — per peer, one list indexed by destination (a prefix is
  its AS number) holding the path that peer last advertised, or ``None``.
  A newer update from the same peer replaces the older one, a withdrawal
  clears the slot, and a session teardown drops the peer's list.  Session
  type and peer id are constants of the peer and a rank is stored only
  where an import policy assigned one, so a stored route is one list slot
  referencing the path cell (:mod:`repro.bgp.routes`) the sender's
  Adj-RIB-Out holds too.
* **Loc-RIB** — the selected best route per destination: three lists
  indexed by destination, the selected peer, the selected path (the cell
  already in that peer's Adj-RIB-In slot) and a lazily built eBGP export
  cell, whose tail is that selected path.  A
  :class:`~repro.bgp.routes.Route` is only a view of a slot, built on
  demand and stored nowhere.
* **Adj-RIB-Out** — per peer, what was last *sent* to that peer (a path, or
  ``None`` meaning "explicitly withdrawn").  Used to suppress no-op updates:
  BGP never re-sends an identical advertisement.

Adj-RIB-Out lives inside :class:`~repro.bgp.speaker.PeerState`; this module
holds the shared in/loc structures.  The decision process,
:meth:`AdjRibIn.decide`, is one scan of the peers' slots for a destination —
no cached answer to keep valid — and returns the winning ``(peer, path)``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.bgp.routes import Path, Route, key_tail, local_route, path_tuple

#: A decision's winner: ``(peer, path)``, peer ``None`` for the local route.
Selection = Tuple[Optional[int], Path]
_LOCAL: Selection = (None, ())
#: ``(peer, ebgp, key tail, paths by destination, ranks by destination)``;
#: the ranks only hold what an import policy assigned, so they stay empty
#: without one.
_Entry = Tuple[int, bool, int, List[Optional[Path]], Dict[int, int]]


class AdjRibIn:
    """Latest path per (destination, peer), one list per peer."""

    __slots__ = ("_peers", "_count", "_stamp", "_clock")

    def __init__(self, size: int) -> None:
        """An empty RIB for destinations ``0 .. size - 1``."""
        #: peer -> its entry; the decision scan walks them in the order
        #: the peers were added.
        self._peers: Dict[int, _Entry] = {}
        #: Stored routes per destination, and when each destination last
        #: went from none to one (a running count): ``drop_peer`` reports
        #: destinations in that order, which ``peer_down`` reselects in.
        self._count = [0] * size
        self._stamp = array("q", bytes(8 * size))
        self._clock = 0

    def add_peer(self, peer: int, ebgp: bool) -> None:
        paths = [None] * len(self._count)
        self._peers[peer] = (peer, ebgp, key_tail(peer, ebgp), paths, {})

    def store(self, dest: int, peer: int, path: Path, rank: int = 0) -> None:
        """Record ``path`` (ranked ``rank``) as peer's route to ``dest``."""
        __, __, __, paths, ranks = self._peers[peer]
        if paths[dest] is None:
            count = self._count
            if not count[dest]:
                self._stamp[dest] = self._clock
                self._clock += 1
            count[dest] += 1
        paths[dest] = path
        if rank:
            ranks[dest] = rank
        elif ranks:
            ranks.pop(dest, None)

    def withdraw(self, dest: int, peer: int) -> bool:
        """Clear peer's slot for ``dest``; returns whether a route existed."""
        paths = self._peers[peer][3]
        if paths[dest] is None:
            return False
        paths[dest] = None
        self._count[dest] -= 1
        return True

    def drop_peer(self, peer: int) -> List[int]:
        """Forget ``peer`` and every route learned from it; returns the
        affected destinations in the order they last went from no route
        to one."""
        paths = self._peers.pop(peer)[3]
        affected = [d for d, path in enumerate(paths) if path is not None]
        count = self._count
        for dest in affected:
            count[dest] -= 1
        affected.sort(key=self._stamp.__getitem__)
        return affected

    def get(self, dest: int, peer: int) -> Optional[Path]:
        """The path ``peer`` last advertised for ``dest``; None when it
        advertised none or is no peer (any more)."""
        try:
            return self._peers[peer][3][dest]
        except KeyError:
            return None

    def decide(
        self,
        dest: int,
        own_prefixes: Set[int],
        excluded_peers: Optional[Set[int]] = None,
    ) -> Optional[Selection]:
        """The decision process: pick the best candidate for ``dest``.

        Candidates are every peer's current advertisement plus, when
        ``dest`` is one of the node's own prefixes, the locally originated
        route (it always wins).  ``excluded_peers`` removes candidates whose
        advertising peer is currently ineligible (route flap damping
        suppression).  Returns the winner as ``(peer, path)`` — ``(None,
        ())`` for the local route, and otherwise the very cell in the
        peer's slot — or ``None`` when no feasible route exists.
        Candidates rank by ``(rank, length, key tail)``, the length read
        from the cell — the order of
        :meth:`~repro.bgp.routes.Route.preference_key`, a strict total
        order — so the minimum is independent of iteration order.
        """
        if dest in own_prefixes:
            return _LOCAL
        best = winner = None
        for entry in self._peers.values():
            peer, __, tail, paths, ranks = entry
            path = paths[dest]
            if path is None or excluded_peers and peer in excluded_peers:
                continue
            # path_length(path), inlined: this scan is the hot loop.
            key = (
                ranks.get(dest, 0) if ranks else 0,
                path[2] if path else 0,
                tail,
            )
            if best is None or key < best:
                best = key
                winner = entry
        if winner is None:
            return None
        return winner[0], winner[3][dest]


class LocRib:
    """Selected best route per destination, as destination-indexed slots.

    ``peer[dest]`` is the peer the selection came from (``None`` = locally
    originated), ``path[dest]`` its path — the cell in that peer's
    Adj-RIB-In slot, ``()`` for the local route, ``None`` for no route —
    and ``export[dest]`` the eBGP export cell ``prepend(asn, path)``,
    filled by the owning speaker the first time it advertises the
    selection and reset with every change.  That one cell is what every
    peer's UPDATE, the sender's Adj-RIB-Out and the receivers' Adj-RIB-In
    share, so the hot equality checks hit CPython's identity fast path;
    its tail is the selected path itself, so building it copies nothing.
    The speaker writes the slots; a :class:`~repro.bgp.routes.Route` is
    only a view, built per read by :meth:`get` / :meth:`items`, with the
    path as a flat tuple.
    """

    __slots__ = ("peer", "path", "export", "_rib_in")

    def __init__(self, rib_in: AdjRibIn) -> None:
        """No selection yet, for the destinations of ``rib_in`` (whose
        session types and ranks the views read)."""
        size = len(rib_in._count)
        self.peer: List[Optional[int]] = [None] * size
        self.path: List[Optional[Path]] = [None] * size
        self.export: List[Optional[Path]] = [None] * size
        self._rib_in = rib_in

    def __len__(self) -> int:
        return len(self.path) - self.path.count(None)

    def __iter__(self) -> Iterator[int]:
        """Destinations with a selected route, ascending."""
        return (dest for dest, path in enumerate(self.path) if path is not None)

    def destinations(self) -> Set[int]:
        return set(self)

    def get(self, dest: int) -> Optional[Route]:
        """The selection for ``dest`` as a new ``Route``; None when there
        is none or the table holds no destinations (a failed router's)."""
        try:
            path = self.path[dest]
        except IndexError:
            return None
        if path is None:
            return None
        peer = self.peer[dest]
        if peer is None:
            return local_route(dest)
        __, ebgp, __, __, ranks = self._rib_in._peers[peer]
        return Route(
            dest, path_tuple(path), peer, ebgp, rank=ranks.get(dest, 0)
        )

    def items(self) -> Iterator[Tuple[int, Route]]:
        """``(dest, view)`` for every selection, ascending."""
        return ((dest, self.get(dest)) for dest in self)

