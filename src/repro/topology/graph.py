"""The topology data model.

A :class:`Topology` is an undirected multigraph-free graph of routers.  Each
router belongs to an AS and sits at a point on the paper's 1000x1000 grid;
each link is either ``inter_as`` (an eBGP adjacency) or ``intra_as`` (an
iBGP/IGP adjacency inside a multi-router AS) and carries a one-way delay,
25 ms by default as in the paper.

Flat topologies (one router per AS) simply use the router id as the AS
number, which is how the paper's main experiments are configured.
"""

from __future__ import annotations

from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

#: Side length of the placement grid used throughout the paper (Sec 3.1).
GRID_SIZE = 1000.0

#: One-way link delay: "transmission, propagation and reception" (Sec 3.1).
DEFAULT_LINK_DELAY = 0.025


class TopologyError(ValueError):
    """Raised for malformed topologies (duplicate links, dangling ids...)."""


@dataclass(frozen=True)
class Router:
    """A BGP router: identity, AS membership and grid position."""

    node_id: int
    asn: int
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    """An undirected link between two routers.

    ``kind`` is ``"inter_as"`` for eBGP adjacencies and ``"intra_as"`` for
    links between routers of the same AS.
    """

    a: int
    b: int
    delay: float = DEFAULT_LINK_DELAY
    kind: str = "inter_as"

    def endpoints(self) -> FrozenSet[int]:
        return frozenset((self.a, self.b))


@dataclass
class Topology:
    """An immutable-ish router graph with AS structure and geometry.

    Mutation is limited to construction time (``add_router`` / ``add_link``);
    experiment code treats instances as read-only and derives failure
    scenarios without modifying them.
    """

    name: str = "topology"
    routers: Dict[int, Router] = field(default_factory=dict)
    links: List[Link] = field(default_factory=list)
    _adjacency: Dict[int, Dict[int, Link]] = field(default_factory=dict, repr=False)
    _link_keys: Set[FrozenSet[int]] = field(default_factory=set, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, router: Router) -> None:
        if router.node_id in self.routers:
            raise TopologyError(f"duplicate router id {router.node_id}")
        self.routers[router.node_id] = router
        self._adjacency[router.node_id] = {}

    def add_link(self, link: Link) -> None:
        if link.a == link.b:
            raise TopologyError(f"self-loop on node {link.a}")
        for end in (link.a, link.b):
            if end not in self.routers:
                raise TopologyError(f"link references unknown router {end}")
        key = link.endpoints()
        if key in self._link_keys:
            raise TopologyError(f"duplicate link {link.a}-{link.b}")
        if link.delay <= 0:
            raise TopologyError(f"non-positive link delay {link.delay}")
        self._link_keys.add(key)
        self.links.append(link)
        self._adjacency[link.a][link.b] = link
        self._adjacency[link.b][link.a] = link

    def connect(
        self,
        a: int,
        b: int,
        delay: float = DEFAULT_LINK_DELAY,
        kind: str = "inter_as",
    ) -> Link:
        """Convenience wrapper: build, add and return a link."""
        link = Link(a, b, delay, kind)
        self.add_link(link)
        return link

    def has_link(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._link_keys

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return len(self.routers)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def node_ids(self) -> List[int]:
        return sorted(self.routers)

    def neighbors(self, node_id: int) -> List[int]:
        """Sorted neighbor ids of ``node_id``."""
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def degree_sequence(self) -> List[int]:
        """Degrees of all routers, sorted descending."""
        return sorted(
            (len(nbrs) for nbrs in self._adjacency.values()), reverse=True
        )

    def average_degree(self) -> float:
        if not self.routers:
            return 0.0
        return 2.0 * len(self.links) / len(self.routers)

    def degree_histogram(self) -> Dict[int, int]:
        """Mapping degree -> number of routers with that degree."""
        return dict(_Counter(len(nbrs) for nbrs in self._adjacency.values()))

    # ------------------------------------------------------------------
    # AS structure
    # ------------------------------------------------------------------
    def as_numbers(self) -> List[int]:
        return sorted({r.asn for r in self.routers.values()})

    def as_members(self, asn: int) -> List[int]:
        """Router ids belonging to AS ``asn``, sorted."""
        return sorted(
            r.node_id for r in self.routers.values() if r.asn == asn
        )

    def as_of(self, node_id: int) -> int:
        return self.routers[node_id].asn

    def inter_as_degree(self, asn: int) -> int:
        """Number of inter-AS links incident to AS ``asn``."""
        return sum(
            1
            for link in self.links
            if link.kind == "inter_as"
            and (self.as_of(link.a) == asn) != (self.as_of(link.b) == asn)
        )

    def is_flat(self) -> bool:
        """True when every AS contains exactly one router."""
        return len(self.as_numbers()) == len(self.routers)

    # ------------------------------------------------------------------
    # Connectivity & geometry
    # ------------------------------------------------------------------
    def connected_components(
        self, exclude: Optional[Set[int]] = None
    ) -> List[Set[int]]:
        """Connected components, optionally ignoring ``exclude``-ed nodes."""
        excluded = exclude or set()
        unvisited = set(self.routers) - excluded
        components: List[Set[int]] = []
        while unvisited:
            start = next(iter(unvisited))
            component = {start}
            frontier = deque([start])
            unvisited.discard(start)
            while frontier:
                node = frontier.popleft()
                for nbr in self._adjacency[node]:
                    if nbr in unvisited:
                        unvisited.discard(nbr)
                        component.add(nbr)
                        frontier.append(nbr)
            components.append(component)
        return components

    def is_connected(self, exclude: Optional[Set[int]] = None) -> bool:
        excluded = exclude or set()
        remaining = len(self.routers) - len(excluded & set(self.routers))
        if remaining <= 1:
            return True
        components = self.connected_components(exclude=excluded)
        return len(components) == 1

    def nodes_by_distance(self, cx: float, cy: float) -> List[int]:
        """All router ids ordered by distance from ``(cx, cy)``.

        Ties are broken by node id so the ordering is deterministic.
        """
        return [
            node_id
            for __, node_id in sorted(
                ((r.x - cx) ** 2 + (r.y - cy) ** 2, r.node_id)
                for r in self.routers.values()
            )
        ]

    # ------------------------------------------------------------------
    # Validation & summary
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural problems."""
        if not self.routers:
            raise TopologyError("topology has no routers")
        isolated = [n for n in self.routers if not self._adjacency[n]]
        if isolated:
            raise TopologyError(f"isolated routers: {sorted(isolated)[:10]}")
        if not self.is_connected():
            sizes = sorted(
                (len(c) for c in self.connected_components()), reverse=True
            )
            raise TopologyError(f"topology is disconnected: components {sizes}")
        for link in self.links:
            same_as = self.as_of(link.a) == self.as_of(link.b)
            if link.kind == "intra_as" and not same_as:
                raise TopologyError(f"intra_as link crosses ASes: {link}")
            if link.kind == "inter_as" and same_as and not self.is_flat():
                raise TopologyError(f"inter_as link within one AS: {link}")

    def summary(self) -> str:
        """One-line human-readable description."""
        hist = self.degree_histogram()
        lo = min(hist) if hist else 0
        hi = max(hist) if hist else 0
        return (
            f"{self.name}: {self.num_routers} routers / "
            f"{len(self.as_numbers())} ASes, {self.num_links} links, "
            f"avg degree {self.average_degree():.2f}, degree range [{lo},{hi}]"
        )
