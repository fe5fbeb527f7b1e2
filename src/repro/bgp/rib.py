"""Routing Information Bases.

Standard BGP structure:

* **Adj-RIB-In** — per destination, the latest route advertised by each
  peer (one slot per (destination, peer); a newer update from the same peer
  replaces the older one, a withdrawal clears the slot).
* **Loc-RIB** — the selected best route per destination.
* **Adj-RIB-Out** — per peer, what was last *sent* to that peer (a path, or
  ``None`` meaning "explicitly withdrawn").  Used to suppress no-op updates:
  BGP never re-sends an identical advertisement.

Adj-RIB-Out lives inside :class:`~repro.bgp.speaker.PeerState`; this module
holds the shared in/loc structures plus the decision process.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.routes import Route, local_route


class AdjRibIn:
    """Latest route per (destination, peer).

    Maintains a per-destination *best candidate* cache so the decision
    process does not rescan every peer's advertisement when nothing
    relevant changed.  The cache is invalidated exactly when a mutation
    could change the answer: a stored route either beats the incumbent
    (cache updates in O(1)) or replaces the incumbent's slot (cache entry
    dropped, recomputed lazily); a withdrawal only invalidates when it
    removes the incumbent.  Route preference is a strict total order
    (see :meth:`~repro.bgp.routes.Route.preference_key`), so the cached
    best is independent of iteration order and selection results are
    bit-identical to a full scan.
    """

    __slots__ = ("_table", "_best")

    def __init__(self) -> None:
        # dest -> peer -> Route
        self._table: Dict[int, Dict[int, Route]] = {}
        # dest -> best stored candidate; a missing key means "recompute".
        self._best: Dict[int, Route] = {}

    def store(self, route: Route) -> None:
        """Record ``route`` as peer's current advertisement for its dest."""
        if route.peer is None:
            raise ValueError("Adj-RIB-In only holds peer-learned routes")
        dest = route.dest
        peers = self._table.get(dest)
        if peers is None:
            peers = self._table[dest] = {}
        old = peers.get(route.peer)
        peers[route.peer] = route
        best = self._best.get(dest)
        if best is None:
            return
        if old is best:
            # The incumbent's slot was overwritten: recompute lazily.
            del self._best[dest]
        elif route.better_than(best):
            self._best[dest] = route

    def withdraw(self, dest: int, peer: int) -> bool:
        """Clear peer's slot for ``dest``; returns whether a route existed."""
        peers = self._table.get(dest)
        if peers and peer in peers:
            del peers[peer]
            if not peers:
                del self._table[dest]
            best = self._best.get(dest)
            if best is not None and best.peer == peer:
                del self._best[dest]
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

    def best_candidate(self, dest: int) -> Optional[Route]:
        """Best stored candidate for ``dest`` (cached; no exclusions).

        Recomputes with a full scan only when the cache was invalidated
        by a mutation since the last call.
        """
        best = self._best.get(dest)
        if best is not None:
            return best
        for candidate in self._table.get(dest, {}).values():
            if candidate.better_than(best):
                best = candidate
        if best is not None:
            self._best[dest] = best
        return best

    def get(self, dest: int, peer: int) -> Optional[Route]:
        return self._table.get(dest, {}).get(peer)

    def destinations(self) -> Set[int]:
        return set(self._table)

    def route_count(self) -> int:
        """Total number of stored routes (all peers, all destinations)."""
        return sum(len(peers) for peers in self._table.values())


class LocRib:
    """Selected best route per destination."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: Dict[int, Route] = {}

    def get(self, dest: int) -> Optional[Route]:
        return self._table.get(dest)

    def set(self, dest: int, route: Optional[Route]) -> None:
        if route is None:
            self._table.pop(dest, None)
        else:
            self._table[dest] = route

    def destinations(self) -> Set[int]:
        return set(self._table)

    def items(self) -> Iterable[Tuple[int, Route]]:
        return self._table.items()

    def __len__(self) -> int:
        return len(self._table)


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
    suppression).  Returns ``None`` when no feasible route exists.
    """
    if excluded_peers:
        # Damping exclusions shrink the candidate set in ways the cache
        # does not model; fall back to the full scan without touching it.
        best: Optional[Route] = None
        if dest in own_prefixes:
            best = local_route(dest)
        for candidate in adj_rib_in.candidates(dest):
            if candidate.peer in excluded_peers:
                continue
            if candidate.better_than(best):
                best = candidate
        return best
    best = adj_rib_in.best_candidate(dest)
    if dest in own_prefixes:
        local = local_route(dest)
        if local.better_than(best):
            return local
    return best
