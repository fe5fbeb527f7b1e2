"""Routing Information Bases.

Standard BGP structure:

* **Adj-RIB-In** — per destination, the latest route advertised by each
  peer (one slot per (destination, peer); a newer update from the same peer
  replaces the older one, a withdrawal clears the slot).
* **Loc-RIB** — the selected best route per destination: a ``dict``.
* **Adj-RIB-Out** — per peer, what was last *sent* to that peer (a path, or
  ``None`` meaning "explicitly withdrawn").  Used to suppress no-op updates:
  BGP never re-sends an identical advertisement.

Adj-RIB-Out lives inside :class:`~repro.bgp.speaker.PeerState`; this module
holds the shared in/loc structures plus the decision process, which is one
scan of a destination's candidates — no cached answer to keep valid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.bgp.routes import Route, by_preference, local_route


class AdjRibIn:
    """Latest route per (destination, peer)."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        # dest -> peer -> Route
        self._table: Dict[int, Dict[int, Route]] = {}

    def store(self, route: Route) -> None:
        """Record ``route`` as peer's current advertisement for its dest."""
        if route.peer is None:
            raise ValueError("Adj-RIB-In only holds peer-learned routes")
        peers = self._table.get(route.dest)
        if peers is None:
            peers = self._table[route.dest] = {}
        peers[route.peer] = route

    def withdraw(self, dest: int, peer: int) -> bool:
        """Clear peer's slot for ``dest``; returns whether a route existed."""
        peers = self._table.get(dest)
        if peers and peer in peers:
            del peers[peer]
            if not peers:
                del self._table[dest]
            return True
        return False

    def drop_peer(self, peer: int) -> List[int]:
        """Remove every route learned from ``peer``; returns affected dests."""
        affected = [
            dest for dest, peers in self._table.items() if peer in peers
        ]
        for dest in affected:
            self.withdraw(dest, peer)
        return affected

    def candidates(self, dest: int) -> Iterable[Route]:
        return self._table.get(dest, {}).values()

    def get(self, dest: int, peer: int) -> Optional[Route]:
        return self._table.get(dest, {}).get(peer)

    def destinations(self) -> Set[int]:
        return set(self._table)

    def route_count(self) -> int:
        """Total number of stored routes (all peers, all destinations)."""
        return sum(len(peers) for peers in self._table.values())


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


def run_decision(
    adj_rib_in: AdjRibIn,
    dest: int,
    own_prefixes: Set[int],
    excluded_peers: Optional[Set[int]] = None,
) -> Optional[Route]:
    """The decision process: pick the best candidate for ``dest``.

    Candidates are every peer's current advertisement plus, when ``dest`` is
    one of the node's own prefixes, the locally originated route (which
    always wins by path length).  ``excluded_peers`` removes candidates
    whose advertising peer is currently ineligible (route flap damping
    suppression).  Returns ``None`` when no feasible route exists.  Route
    preference is a strict total order (see
    :meth:`~repro.bgp.routes.Route.preference_key`), so the minimum is
    independent of iteration order.
    """
    candidates = adj_rib_in.candidates(dest)
    if excluded_peers:
        candidates = [c for c in candidates if c.peer not in excluded_peers]
    best = min(candidates, key=by_preference, default=None)
    if dest in own_prefixes:
        local = local_route(dest)
        if local.better_than(best):
            return local
    return best
