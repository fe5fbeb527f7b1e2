"""Reference oracle for Gao-Rexford (valley-free) reachability.

Under Gao-Rexford export rules a converged network must route exactly
the valley-free paths.  This oracle computes, independently of the
protocol, which prefixes each alive router should reach; the policy tests
check the simulator's Loc-RIBs against it.
"""

from collections import deque
from typing import Dict, Set

from repro.bgp.network import BGPNetwork
from repro.bgp.policy import CUSTOMER, PEER
from repro.core.validation import validate_routing


def valley_free_prefixes(network: BGPNetwork, relationships) -> Dict[int, Set[int]]:
    """Prefixes each alive node should reach under Gao-Rexford export.

    A source ``s`` has a route to destination ``d`` iff an *alive* path
    ``s -> d`` exists of the valley-free shape: zero or more steps up to
    providers, at most one peer step, then zero or more steps down to
    customers.  Computed with a two-phase BFS per source (UP: may still
    climb; DOWN: may only descend), over the up-session graph.

    Flat topologies only (node id == AS number); the multi-router case
    would additionally need intra-AS transparency.
    """
    if not network.topology.is_flat():
        raise ValueError("valley-free validation supports flat topologies")
    graph = {
        speaker.node_id: {
            ps.peer_id
            for ps in speaker.peers.values()
            if ps.session_up and network.speakers[ps.peer_id].alive
        }
        for speaker in network.alive_speakers()
    }
    expected: Dict[int, Set[int]] = {}
    for source in graph:
        # (node, phase): phase 0 = may climb / peer once, 1 = descend only.
        seen = {(source, 0)}
        reachable = {source}
        frontier = deque([(source, 0)])
        while frontier:
            node, phase = frontier.popleft()
            for neighbor in graph[node]:
                relation = relationships.relation(node, neighbor)
                if relation == CUSTOMER:
                    next_phase = 1  # descending
                elif relation == PEER:
                    if phase != 0:
                        continue
                    next_phase = 1
                else:  # PROVIDER: climbing
                    if phase != 0:
                        continue
                    next_phase = 0
                state = (neighbor, next_phase)
                if state not in seen:
                    seen.add(state)
                    reachable.add(neighbor)
                    frontier.append(state)
        expected[source] = {network.speakers[v].asn for v in reachable}
    return expected


def validate_gao_rexford(network: BGPNetwork, relationships) -> None:
    """Full invariant check for a Gao-Rexford policy-routed network."""
    validate_routing(
        network,
        expected_prefixes=valley_free_prefixes(network, relationships),
    )
