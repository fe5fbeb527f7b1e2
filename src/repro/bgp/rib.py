"""Routing Information Bases.

Standard BGP structure, laid out peer-major:

* **Adj-RIB-In** — per peer, one list indexed by destination (a prefix is
  its AS number) holding the path that peer last advertised, or ``None``.
  A newer update from the same peer replaces the older one, a withdrawal
  clears the slot.  Session type and peer id are constants of the peer
  and a rank is stored only where an import policy assigned one, so a
  stored route is one list slot referencing the tuple the sender's
  Adj-RIB-Out holds too.
* **Loc-RIB** — the selected best route per destination: a ``dict`` of
  :class:`~repro.bgp.routes.Route`.
* **Adj-RIB-Out** — per peer, what was last *sent* to that peer (a path, or
  ``None`` meaning "explicitly withdrawn").  Used to suppress no-op updates:
  BGP never re-sends an identical advertisement.

Adj-RIB-Out lives inside :class:`~repro.bgp.speaker.PeerState`; this module
holds the shared in/loc structures.  The decision process,
:meth:`AdjRibIn.decide`, is one scan of the peers' slots for a destination —
no cached answer to keep valid, and a ``Route`` is built only when the
selection changes.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.routes import Route, key_tail, local_route

Path = Tuple[int, ...]
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
        """Remove every route learned from ``peer``; returns the affected
        destinations in the order they last went from no route to one."""
        __, __, __, paths, ranks = self._peers[peer]
        affected = [d for d, path in enumerate(paths) if path is not None]
        count = self._count
        for dest in affected:
            paths[dest] = None
            count[dest] -= 1
        ranks.clear()
        affected.sort(key=self._stamp.__getitem__)
        return affected

    def get(self, dest: int, peer: int) -> Optional[Path]:
        """The path ``peer`` last advertised for ``dest``, or None."""
        return self._peers[peer][3][dest]

    def destinations(self) -> Set[int]:
        return {dest for dest, n in enumerate(self._count) if n}

    def route_count(self) -> int:
        """Total number of stored routes (all peers, all destinations)."""
        return sum(self._count)

    def decide(
        self,
        dest: int,
        own_prefixes: Set[int],
        excluded_peers: Optional[Set[int]] = None,
        current: Optional[Route] = None,
    ) -> Optional[Route]:
        """The decision process: pick the best candidate for ``dest``.

        Candidates are every peer's current advertisement plus, when
        ``dest`` is one of the node's own prefixes, the locally originated
        route (it always wins).  ``excluded_peers`` removes candidates whose
        advertising peer is currently ineligible (route flap damping
        suppression).  Returns ``None`` when no feasible route exists, and
        ``current`` itself when the winner is the selection it already
        denotes (same path from the same peer), so a caller sees a change
        as ``new is not current``.  Candidates rank by ``(rank, len(path),
        key tail)`` — the order of
        :meth:`~repro.bgp.routes.Route.preference_key`, a strict total
        order — so the minimum is independent of iteration order.
        """
        if dest in own_prefixes:
            if current is not None and current.peer is None:
                return current
            return local_route(dest)
        best = winner = None
        for entry in self._peers.values():
            peer, __, tail, paths, ranks = entry
            path = paths[dest]
            if path is None or excluded_peers and peer in excluded_peers:
                continue
            key = (ranks.get(dest, 0) if ranks else 0, len(path), tail)
            if best is None or key < best:
                best = key
                winner = entry
        if winner is None:
            return None
        peer, ebgp, __, paths, __ = winner
        path = paths[dest]
        if current is not None and current.peer == peer and current.path == path:
            return current
        return Route(dest, path, peer, ebgp, rank=best[0])


class LocRib(dict):
    """Selected best route per destination: a ``dict`` of dest -> Route."""

    __slots__ = ()

    def set(self, dest: int, route: Optional[Route]) -> None:
        if route is None:
            self.pop(dest, None)
        else:
            self[dest] = route

    def destinations(self) -> Set[int]:
        return set(self)
