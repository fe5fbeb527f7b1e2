"""Routing correctness validation.

After the network quiesces, the routing state must satisfy the invariants
path-vector convergence guarantees.  These checks back the integration and
property-based tests:

* **completeness** — every alive router has a Loc-RIB route to every prefix
  that is physically reachable in the surviving session graph;
* **soundness** — every Loc-RIB route points at an up session, traverses
  only surviving ASes, and its destination is actually alive;
* **path realizability** (flat topologies) — the AS path corresponds to an
  actual chain of links in the surviving topology;
* **forwarding loop freedom** — hop-by-hop forwarding along best routes
  reaches the destination without revisiting a node.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.bgp.network import BGPNetwork
from repro.bgp.routes import path_tuple


class RoutingViolation(AssertionError):
    """A converged network violated a routing invariant."""


def _session_graph(network: BGPNetwork) -> Dict[int, Set[int]]:
    """Adjacency over *up* sessions between alive routers."""
    graph: Dict[int, Set[int]] = {}
    for speaker in network.alive_speakers():
        up = {
            ps.peer_id
            for ps in speaker.peers.values()
            if ps.session_up and network.speakers[ps.peer_id].alive
        }
        graph[speaker.node_id] = up
    return graph


def reachable_prefixes(network: BGPNetwork, node_id: int) -> Set[int]:
    """Prefixes physically reachable from ``node_id`` over up sessions."""
    graph = _session_graph(network)
    if node_id not in graph:
        return set()
    seen = {node_id}
    frontier = deque([node_id])
    while frontier:
        v = frontier.popleft()
        for u in graph[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return {network.speakers[v].asn for v in seen}


def validate_routing(
    network: BGPNetwork,
    expected_prefixes: Optional[Dict[int, Set[int]]] = None,
) -> None:
    """Raise :class:`RoutingViolation` on any broken invariant.

    ``expected_prefixes`` overrides the default completeness oracle
    (connected-component reachability) — pass the valley-free expectation
    for policy-routed networks (``tests/reference_valley_free.py``).
    """
    if not network.is_quiescent():
        raise RoutingViolation("validation requires a quiescent network")
    graph = _session_graph(network)
    alive_prefixes = network.alive_prefixes()
    flat = network.topology.is_flat()

    # Per-component reachability (computed once per component, not per node).
    component_prefixes: Dict[int, Set[int]] = {}
    unassigned = set(graph)
    while unassigned:
        start = next(iter(unassigned))
        members = {start}
        frontier = deque([start])
        unassigned.discard(start)
        while frontier:
            v = frontier.popleft()
            for u in graph[v]:
                if u in unassigned:
                    unassigned.discard(u)
                    members.add(u)
                    frontier.append(u)
        prefixes = {network.speakers[v].asn for v in members}
        for v in members:
            component_prefixes[v] = prefixes

    for speaker in network.alive_speakers():
        nid = speaker.node_id
        if expected_prefixes is not None:
            expected = expected_prefixes[nid]
        else:
            expected = component_prefixes[nid]
        have = speaker.loc_rib.destinations()
        missing = expected - have
        if missing:
            raise RoutingViolation(
                f"node {nid}: no route to reachable prefixes "
                f"{sorted(missing)[:5]}"
            )
        extra = have - expected
        if extra:
            raise RoutingViolation(
                f"node {nid}: routes to unreachable prefixes "
                f"{sorted(extra)[:5]}"
            )
        loc = speaker.loc_rib
        for dest in loc:
            if dest not in alive_prefixes:
                raise RoutingViolation(
                    f"node {nid}: route to dead prefix {dest}"
                )
            peer = loc.peer[dest]
            if peer is None:
                continue
            path = path_tuple(loc.path[dest])
            if peer not in graph[nid]:
                raise RoutingViolation(
                    f"node {nid}: best route to {dest} via down/dead "
                    f"session {peer}"
                )
            if len(set(path)) != len(path):
                raise RoutingViolation(
                    f"node {nid}: AS path for {dest} has a loop: {path}"
                )
            if speaker.asn in path:
                raise RoutingViolation(
                    f"node {nid}: own AS in path for {dest}: {path}"
                )
            if flat and not _path_realizable(graph, nid, path):
                raise RoutingViolation(
                    f"node {nid}: unrealizable path for {dest}: {path}"
                )

    _check_forwarding(network, graph)


def _path_realizable(
    graph: Dict[int, Set[int]], node_id: int, path: tuple
) -> bool:
    """Flat topologies: the AS path must be a live chain of links."""
    current = node_id
    for asn in path:
        # Flat topology: AS number == node id.
        if asn not in graph:
            return False
        if asn not in graph[current]:
            return False
        current = asn
    return True


def _check_forwarding(
    network: BGPNetwork, graph: Dict[int, Set[int]]
) -> None:
    """Hop-by-hop forwarding must reach each destination loop-free."""
    alive = {s.node_id: s for s in network.alive_speakers()}
    for speaker in alive.values():
        for dest in speaker.loc_rib:
            current = speaker.node_id
            visited: Set[int] = set()
            while True:
                if current in visited:
                    raise RoutingViolation(
                        f"forwarding loop for prefix {dest} starting at "
                        f"{speaker.node_id}: revisited {current}"
                    )
                visited.add(current)
                node = alive[current]
                if node.asn == dest:
                    break
                nxt = node.loc_rib.peer[dest]
                if nxt is None:
                    raise RoutingViolation(
                        f"forwarding blackhole for prefix {dest} at node "
                        f"{current} (started at {speaker.node_id})"
                    )
                current = nxt
