"""Unit tests for routes, route comparison and the RIBs."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import (
    Route,
    local_route,
    path_contains,
    path_length,
    path_tuple,
    prepend,
)
from tests.conftest import (
    as_path,
    rib_in_destinations,
    rib_in_route_count,
    select,
)


# ---------------------------------------------------------------------------
# Route preference
# ---------------------------------------------------------------------------
def test_shorter_path_preferred():
    short = Route(1, (2, 1), peer=5)
    long = Route(1, (3, 4, 1), peer=6)
    assert short.preference_key() < long.preference_key()


def test_local_route_beats_learned():
    local = local_route(1)
    learned = Route(1, (2,), peer=5)
    assert local.preference_key() < learned.preference_key()
    assert local.is_local
    assert local.path == ()


def test_ebgp_preferred_over_ibgp_on_equal_length():
    ebgp = Route(1, (2, 1), peer=9, ebgp=True)
    ibgp = Route(1, (3, 1), peer=5, ebgp=False)
    assert ebgp.preference_key() < ibgp.preference_key()


def test_lowest_peer_breaks_full_ties():
    a = Route(1, (2, 1), peer=3)
    b = Route(1, (4, 1), peer=7)
    assert a.preference_key() < b.preference_key()


# ---------------------------------------------------------------------------
# AS paths as chains of cells
# ---------------------------------------------------------------------------
def test_prepend_shares_the_path_it_extends():
    tail = as_path(2, 1)
    path = prepend(3, tail)
    assert path == (3, tail, 3) and path[1] is tail
    assert path[0] == 3  # the first hop, as on a flat tuple
    assert path_tuple(path) == (3, 2, 1)
    assert path_length(path) == 3 and path_length(()) == 0
    assert path_tuple(()) == ()
    assert prepend(7, ()) == (7, (), 1)


def test_path_contains_walks_the_whole_chain():
    path = as_path(5, 4, 3, 2)
    assert all(path_contains(path, asn) for asn in (5, 4, 3, 2))
    # The length (4) and the tail are no AS of the path.
    assert not path_contains(path, 1) and not path_contains((), 5)
    assert not path_contains(as_path(9, 8, 7), 3)


def test_deep_chains_are_walked_without_recursion():
    # Path helpers walk iteratively: a chain far past the interpreter's
    # recursion limit reads like a short one.
    hops = 5_000
    path = as_path(*range(hops, 0, -1))
    assert path_length(path) == hops
    assert path_tuple(path) == tuple(range(hops, 0, -1))
    assert path_contains(path, 1) and path_contains(path, hops)
    assert not path_contains(path, hops + 1)
    # Equality of a chain with itself is an identity check, whatever its
    # depth; so is a comparison of two cells sharing their tail.
    assert path == path and prepend(0, path) == prepend(0, path)
    # Two distinct equal chains compare cell by cell (recursing in C, so
    # within the interpreter's recursion limit: docs/MODEL.md §4).
    assert as_path(*range(500)) == as_path(*range(500))
    assert as_path(*range(500)) != as_path(*range(499), 7)


# ---------------------------------------------------------------------------
# Adj-RIB-In
# ---------------------------------------------------------------------------
def adj_rib_in(size=100, peers=(5, 6), ibgp=()):
    """An Adj-RIB-In of ``size`` destinations and eBGP peers ``peers``
    (iBGP for those also in ``ibgp``): the session type is a constant of
    the peer, as it is in a network."""
    rib = AdjRibIn(size)
    for peer in peers:
        rib.add_peer(peer, ebgp=peer not in ibgp)
    return rib


def test_adj_rib_in_store_and_replace():
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2))
    path = as_path(3, 2)
    rib.store(1, 5, path)  # same peer: replaces
    assert rib.get(1, 5) is path
    assert rib_in_route_count(rib) == 1


def test_adj_rib_in_rejects_local_routes():
    # Only peers hold slots: a locally originated route (no peer) or a
    # route from a peer the RIB was not told about has nowhere to go.
    rib = adj_rib_in()
    with pytest.raises(KeyError):
        rib.store(1, None, ())
    with pytest.raises(KeyError):
        rib.store(1, 7, as_path(7))


def test_adj_rib_in_withdraw():
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2))
    assert rib.withdraw(1, 5)
    assert not rib.withdraw(1, 5)  # already gone
    assert rib.get(1, 5) is None
    assert rib_in_destinations(rib) == set()


def test_adj_rib_in_drop_peer():
    rib = adj_rib_in()
    rib.store(2, 5, as_path(3))
    rib.store(1, 5, as_path(2))
    rib.store(1, 6, as_path(4))
    affected = rib.drop_peer(5)
    # In the order the destinations gained their first route.
    assert affected == [2, 1]
    assert rib.get(1, 6) is not None
    # The dropped peer is forgotten: its reads answer "no route".
    assert rib.get(1, 5) is None
    assert rib_in_route_count(rib) == 1


def test_adj_rib_in_candidates():
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2))
    rib.store(1, 6, as_path(3))
    assert [path_tuple(rib.get(1, peer)) for peer in (5, 6)] == [(2,), (3,)]
    assert rib_in_destinations(rib) == {1}
    assert [rib.get(99, peer) for peer in (5, 6)] == [None, None]


# ---------------------------------------------------------------------------
# Loc-RIB
# ---------------------------------------------------------------------------
def test_loc_rib_set_get_delete():
    rib_in = adj_rib_in(ibgp=(6,))
    rib_in.store(1, 6, as_path(2), rank=1)
    rib = LocRib(rib_in)
    select(rib, 1, 6, (2,))
    select(rib, 2, None, ())
    # A view per read, carrying the peer's session type, the rank and
    # the path as a flat tuple.
    route = rib.get(1)
    assert (route.path, route.peer, route.ebgp) == ((2,), 6, False)
    assert route.preference_key() == Route(1, (2,), 6, False, 1).preference_key()
    assert rib.get(1) is not route
    assert rib.get(2).is_local
    assert [(d, r.path) for d, r in rib.items()] == [(1, (2,)), (2, ())]
    assert len(rib) == 2 and list(rib) == [1, 2]
    select(rib, 1, None, None)
    assert rib.get(1) is None
    assert len(rib) == 1 and rib.destinations() == {2}


# ---------------------------------------------------------------------------
# Decision process
# ---------------------------------------------------------------------------
def test_decision_picks_best_candidate():
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2, 3, 1))
    rib.store(1, 6, as_path(4, 1))
    peer, path = rib.decide(1, own_prefixes=set())
    assert (peer, path_tuple(path)) == (6, (4, 1))


def test_decision_reads_the_length_from_the_cell():
    # A 3-hop cell is a 3-tuple and a 2-hop cell too: only the stored
    # length tells them apart, so the shorter path wins whatever the AS
    # numbers (here the longer path's length, 3, is below the shorter
    # one's first AS).
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2, 3, 1))
    rib.store(1, 6, as_path(9, 1))
    assert rib.decide(1, set())[0] == 6
    rib.store(1, 6, as_path(9, 8, 7, 1))
    assert rib.decide(1, set())[0] == 5


def test_decision_prefers_local_origin():
    rib = adj_rib_in()
    rib.store(1, 5, as_path(2))
    assert rib.decide(1, own_prefixes={1}) == (None, ())


def test_decision_none_when_no_candidates():
    assert adj_rib_in().decide(1, own_prefixes=set()) is None


def test_same_selection():
    # The winner's path is the very cell in its peer's slot, so the
    # speaker's ``path ==`` test against the Loc-RIB slot it copied from
    # there is an identity check while the selection stands.
    rib = adj_rib_in()
    path = as_path(2, 1)
    rib.store(1, 5, path)
    peer, chosen = rib.decide(1, set())
    assert peer == 5 and chosen is path
    other = as_path(3, 1)
    rib.store(1, 6, other)  # a worse candidate leaves the selection alone
    assert rib.decide(1, set())[1] is path
    rib.store(1, 5, as_path(4, 3, 1))  # a longer path from 5: peer 6 wins now
    peer, chosen = rib.decide(1, set())
    assert peer == 6 and chosen is other


_PEERS = st.integers(min_value=0, max_value=5)
_DESTS = st.integers(min_value=1, max_value=3)
_OPERATIONS = st.one_of(
    st.tuples(
        st.just("store"),
        _DESTS,
        _PEERS,
        st.lists(st.integers(min_value=10, max_value=14), max_size=4).map(tuple),
        st.integers(min_value=0, max_value=2),
    ),
    st.tuples(st.just("withdraw"), _DESTS, _PEERS),
    st.tuples(st.just("drop_peer"), _PEERS),
)


@given(
    st.lists(_OPERATIONS, max_size=40),
    st.sets(_PEERS),
    st.sets(_PEERS),
    st.booleans(),
)
# Destination 1 leaves with its last route and re-enters behind 2 ...
@example(
    [("store", 1, 0, (10,), 0), ("store", 2, 0, (11,), 0),
     ("withdraw", 1, 0), ("store", 1, 0, (12,), 0)],
    set(), set(), False,
)
# ... but not while another peer still holds a route to it.
@example(
    [("store", 1, 0, (10,), 0), ("store", 2, 0, (11,), 0),
     ("store", 1, 1, (13,), 0), ("withdraw", 1, 0),
     ("store", 1, 0, (12,), 0)],
    set(), set(), False,
)
def test_decision_is_the_brute_force_minimum(operations, ibgp, excluded, own):
    """After any store / withdraw / drop_peer sequence, the decision's
    ``(peer, path)`` is the minimum of ``preference_key()`` over the
    surviving candidates — with and without exclusions, with and without
    the local route — and ``drop_peer`` reports destinations in the order
    of a dest-major table that a destination enters with its first route
    and leaves with its last (the order ``peer_down`` reselects in)."""
    peers = range(6)
    rib = adj_rib_in(size=4, peers=peers, ibgp=ibgp)
    model = {}  # dest -> {peer: Route}: the surviving candidates, in order

    def drop_peer(peer):
        dropped = [d for d, routes in model.items() if peer in routes]
        assert rib.drop_peer(peer) == dropped
        for dest in dropped:
            del model[dest][peer]
            if not model[dest]:
                del model[dest]
        # The RIB forgets the peer; a later operation on it in the
        # sequence meets a new, empty session.
        assert all(rib.get(dest, peer) is None for dest in (1, 2, 3))
        rib.add_peer(peer, ebgp=peer not in ibgp)

    for op, *args in operations:
        if op == "store":
            dest, peer, path, rank = args
            route = Route(dest, path, peer, peer not in ibgp, rank=rank)
            rib.store(dest, peer, as_path(*path), rank)
            model.setdefault(dest, {})[peer] = route
        elif op == "withdraw":
            dest, peer = args
            routes = model.get(dest, {})
            assert rib.withdraw(dest, peer) == (peer in routes)
            routes.pop(peer, None)
            if not routes:
                model.pop(dest, None)
        else:
            drop_peer(*args)
    for dest in (1, 2, 3):
        own_prefixes = {dest} if own else set()
        for excluded_peers in (None, excluded):
            survivors = [
                route
                for peer, route in model.get(dest, {}).items()
                if peer not in (excluded_peers or ())
            ]
            if own:
                survivors.append(local_route(dest))
            best = rib.decide(dest, own_prefixes, excluded_peers)
            if not survivors:
                assert best is None
            else:
                expected = min(survivors, key=Route.preference_key)
                peer, path = best
                assert (peer, path_tuple(path)) == (expected.peer, expected.path)
                # The winner's path is the cell its peer's slot holds.
                assert peer is None or rib.get(dest, peer) is path
    # Then every session goes down, as around a failed node.
    for peer in peers:
        drop_peer(peer)
    assert not model and rib_in_route_count(rib) == 0
