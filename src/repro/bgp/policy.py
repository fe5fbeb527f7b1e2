"""Routing policies and AS business relationships.

The paper deliberately disables policy: "there were no policy based
restrictions on route advertisements" — path length alone selects routes.
A production BGP substrate still needs the policy layer, both to show what
that simplification ignores (the ``ab_policy_routing`` ablation) and
because convergence work after the paper (e.g. Labovitz's policy paper,
INFOCOM 2001) shows policy changes the path-exploration space.

Implemented:

* :class:`ShortestPathPolicy` — the paper's configuration (accept all,
  export all, no preference classes).  The default; zero overhead.
* :class:`GaoRexfordPolicy` — the canonical commercial-Internet policy:

  - *import*: prefer customer-learned routes over peer-learned over
    provider-learned, before path length;
  - *export* (valley-free): routes learned from a customer go to everyone;
    routes learned from a peer or provider go to customers only.

* :func:`infer_relationships_hierarchical` — customer/provider/peer
  inference for generated topologies that keeps every AS reachable
  under valley-free export.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.topology.graph import Topology

#: Relationship of a neighbor AS, from the local AS's point of view.
CUSTOMER = "customer"
PEER = "peer"
PROVIDER = "provider"

#: Import-preference ranks; lower is preferred (sorts before path length).
_RANK = {CUSTOMER: 0, PEER: 1, PROVIDER: 2}


class ASRelationships:
    """Directed customer/peer/provider labels for AS adjacencies."""

    def __init__(self) -> None:
        # (a, b) -> relationship of b as seen from a.
        self._rel: Dict[Tuple[int, int], str] = {}

    def set_customer(self, provider: int, customer: int) -> None:
        """Declare ``customer`` to be a customer of ``provider``."""
        if provider == customer:
            raise ValueError("an AS cannot be its own customer")
        self._rel[(provider, customer)] = CUSTOMER
        self._rel[(customer, provider)] = PROVIDER

    def set_peers(self, a: int, b: int) -> None:
        """Declare a settlement-free peering between ``a`` and ``b``."""
        if a == b:
            raise ValueError("an AS cannot peer with itself")
        self._rel[(a, b)] = PEER
        self._rel[(b, a)] = PEER

    def relation(self, local: int, neighbor: int) -> str:
        """``neighbor``'s role from ``local``'s point of view.

        Unlabeled adjacencies default to peering (the least permissive
        symmetric assumption).
        """
        return self._rel.get((local, neighbor), PEER)

    def items(self) -> List[Tuple[int, int, str]]:
        """Directed ``(local, neighbor, relation)`` triples, sorted.

        The serialized form used by the declarative spec layer; feed back
        through :meth:`from_items` to reconstruct.
        """
        return sorted((a, b, rel) for (a, b), rel in self._rel.items())

    @classmethod
    def from_items(
        cls, items: Iterable[Tuple[int, int, str]]
    ) -> "ASRelationships":
        """Rebuild from :meth:`items` output (directed triples)."""
        rels = cls()
        for a, b, rel in items:
            if rel not in _RANK:
                raise ValueError(
                    f"unknown relationship {rel!r}; "
                    f"choose from {sorted(_RANK)}"
                )
            rels._rel[(int(a), int(b))] = rel
        return rels


class RoutingPolicy:
    """Import/export policy interface consulted by the speaker."""

    #: Name used in scheme labels.
    name = "policy"

    def import_rank(self, local_asn: int, neighbor_asn: int) -> Optional[int]:
        """Preference class for a route that entered the local AS from
        ``neighbor_asn``; ``None`` rejects it.

        Lower ranks are preferred ahead of path length.
        """
        raise NotImplementedError

    def export_allowed(
        self,
        local_asn: int,
        learned_from_asn: Optional[int],
        to_asn: int,
    ) -> bool:
        """May a route learned from ``learned_from_asn`` (``None`` for
        locally originated) be advertised to ``to_asn``?"""
        raise NotImplementedError


class ShortestPathPolicy(RoutingPolicy):
    """The paper's configuration: no restrictions, no preference classes."""

    name = "shortest-path"

    def import_rank(self, local_asn: int, neighbor_asn: int) -> Optional[int]:
        return 0

    def export_allowed(
        self,
        local_asn: int,
        learned_from_asn: Optional[int],
        to_asn: int,
    ) -> bool:
        return True


class GaoRexfordPolicy(RoutingPolicy):
    """Valley-free commercial routing over declared AS relationships."""

    name = "gao-rexford"

    def __init__(self, relationships: ASRelationships) -> None:
        self.relationships = relationships

    def import_rank(self, local_asn: int, neighbor_asn: int) -> Optional[int]:
        return _RANK[self.relationships.relation(local_asn, neighbor_asn)]

    def export_allowed(
        self,
        local_asn: int,
        learned_from_asn: Optional[int],
        to_asn: int,
    ) -> bool:
        if learned_from_asn is None:
            # Own prefixes are advertised to everyone.
            return True
        learned_rel = self.relationships.relation(local_asn, learned_from_asn)
        if learned_rel == CUSTOMER:
            # Customer routes are revenue: tell the world.
            return True
        # Peer/provider routes only flow downhill, to customers.
        return self.relationships.relation(local_asn, to_asn) == CUSTOMER


def infer_relationships_hierarchical(topology: Topology) -> ASRelationships:
    """Hierarchy-preserving relationship inference.

    Builds a provider tree by BFS from the highest-degree AS (the
    "tier 1"): every AS's BFS parent — and any neighbor strictly closer to
    the root — is a provider; neighbors at equal depth are peers.  Because
    every AS has an all-customer-provider path up to the root and down to
    any other AS, valley-free export retains *full* reachability, which
    makes policied and unrestricted convergence directly comparable (the
    ``ab_policy_routing`` ablation relies on this).
    """
    flat = topology.is_flat()
    if not flat:
        raise ValueError("relationship inference expects a flat topology")
    degrees = {
        asn: topology.inter_as_degree(asn) for asn in topology.as_numbers()
    }
    root = max(degrees, key=lambda a: (degrees[a], -a))
    # BFS depths from the root over the AS graph.
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in depth:
                    depth[neighbor] = depth[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    rels = ASRelationships()
    seen = set()
    for link in topology.links:
        a, b = link.a, link.b
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        if depth[a] < depth[b]:
            rels.set_customer(provider=a, customer=b)
        elif depth[b] < depth[a]:
            rels.set_customer(provider=b, customer=a)
        else:
            rels.set_peers(a, b)
    return rels
