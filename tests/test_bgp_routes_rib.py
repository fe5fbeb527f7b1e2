"""Unit tests for routes, route comparison and the RIBs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.rib import AdjRibIn, LocRib, run_decision
from repro.bgp.routes import Route, local_route


# ---------------------------------------------------------------------------
# Route preference
# ---------------------------------------------------------------------------
def test_shorter_path_preferred():
    short = Route(1, (2, 1), peer=5)
    long = Route(1, (3, 4, 1), peer=6)
    assert short.better_than(long)
    assert not long.better_than(short)


def test_local_route_beats_learned():
    local = local_route(1)
    learned = Route(1, (2,), peer=5)
    assert local.better_than(learned)
    assert local.is_local
    assert local.path_length == 0


def test_ebgp_preferred_over_ibgp_on_equal_length():
    ebgp = Route(1, (2, 1), peer=9, ebgp=True)
    ibgp = Route(1, (3, 1), peer=5, ebgp=False)
    assert ebgp.better_than(ibgp)


def test_lowest_peer_breaks_full_ties():
    a = Route(1, (2, 1), peer=3)
    b = Route(1, (4, 1), peer=7)
    assert a.better_than(b)


def test_better_than_none():
    assert Route(1, (2,), peer=3).better_than(None)


def test_same_selection():
    a = Route(1, (2, 1), peer=3)
    b = Route(1, (2, 1), peer=3)
    c = Route(1, (2, 1), peer=4)
    assert a.same_selection(b)
    assert not a.same_selection(c)
    assert not a.same_selection(None)


def test_contains_as():
    route = Route(1, (2, 3, 4), peer=9)
    assert route.contains_as(3)
    assert not route.contains_as(9)


# ---------------------------------------------------------------------------
# Adj-RIB-In
# ---------------------------------------------------------------------------
def test_adj_rib_in_store_and_replace():
    rib = AdjRibIn()
    rib.store(Route(1, (2,), peer=5))
    rib.store(Route(1, (3, 2), peer=5))  # same peer: replaces
    assert rib.get(1, 5).path == (3, 2)
    assert rib.route_count() == 1


def test_adj_rib_in_rejects_local_routes():
    rib = AdjRibIn()
    with pytest.raises(ValueError):
        rib.store(local_route(1))


def test_adj_rib_in_withdraw():
    rib = AdjRibIn()
    rib.store(Route(1, (2,), peer=5))
    assert rib.withdraw(1, 5)
    assert not rib.withdraw(1, 5)  # already gone
    assert rib.get(1, 5) is None
    assert rib.destinations() == set()


def test_adj_rib_in_drop_peer():
    rib = AdjRibIn()
    rib.store(Route(1, (2,), peer=5))
    rib.store(Route(2, (3,), peer=5))
    rib.store(Route(1, (4,), peer=6))
    affected = rib.drop_peer(5)
    assert sorted(affected) == [1, 2]
    assert rib.get(1, 6) is not None
    assert rib.route_count() == 1


def test_adj_rib_in_candidates():
    rib = AdjRibIn()
    rib.store(Route(1, (2,), peer=5))
    rib.store(Route(1, (3,), peer=6))
    assert len(list(rib.candidates(1))) == 2
    assert list(rib.candidates(99)) == []


# ---------------------------------------------------------------------------
# Loc-RIB
# ---------------------------------------------------------------------------
def test_loc_rib_set_get_delete():
    rib = LocRib()
    route = Route(1, (2,), peer=5)
    rib.set(1, route)
    assert rib.get(1) is route
    assert len(rib) == 1
    rib.set(1, None)
    assert rib.get(1) is None
    assert len(rib) == 0


# ---------------------------------------------------------------------------
# Decision process
# ---------------------------------------------------------------------------
def test_decision_picks_best_candidate():
    rib = AdjRibIn()
    rib.store(Route(1, (2, 3, 1), peer=5))
    rib.store(Route(1, (4, 1), peer=6))
    best = run_decision(rib, 1, own_prefixes=set())
    assert best.peer == 6


def test_decision_prefers_local_origin():
    rib = AdjRibIn()
    rib.store(Route(1, (2,), peer=5))
    best = run_decision(rib, 1, own_prefixes={1})
    assert best.is_local


def test_decision_none_when_no_candidates():
    assert run_decision(AdjRibIn(), 1, own_prefixes=set()) is None


_PEERS = st.integers(min_value=0, max_value=5)
_DESTS = st.integers(min_value=1, max_value=3)
_OPERATIONS = st.one_of(
    st.tuples(
        st.just("store"),
        _DESTS,
        _PEERS,
        st.lists(st.integers(min_value=10, max_value=14), max_size=4).map(tuple),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
    ),
    st.tuples(st.just("withdraw"), _DESTS, _PEERS),
    st.tuples(st.just("drop_peer"), _PEERS),
)


@given(st.lists(_OPERATIONS, max_size=40), st.sets(_PEERS), st.booleans())
def test_decision_is_the_brute_force_minimum(operations, excluded, own):
    """After any store / withdraw / drop_peer sequence, the decision is the
    minimum of ``preference_key()`` over the surviving candidates — with
    and without exclusions, with and without the local route."""
    rib = AdjRibIn()
    model = {}  # (dest, peer) -> Route: the surviving candidates
    for op, *args in operations:
        if op == "store":
            dest, peer, path, ebgp, rank = args
            route = Route(dest, path, peer, ebgp, rank=rank)
            rib.store(route)
            model[dest, peer] = route
        elif op == "withdraw":
            dest, peer = args
            assert rib.withdraw(dest, peer) == ((dest, peer) in model)
            model.pop((dest, peer), None)
        else:
            (peer,) = args
            dropped = sorted(d for d, p in model if p == peer)
            assert sorted(rib.drop_peer(peer)) == dropped
            model = {k: r for k, r in model.items() if k[1] != peer}
    for dest in (1, 2, 3):
        own_prefixes = {dest} if own else set()
        for excluded_peers in (None, excluded):
            survivors = [
                route
                for (d, peer), route in model.items()
                if d == dest and peer not in (excluded_peers or ())
            ]
            if own:
                survivors.append(local_route(dest))
            best = run_decision(rib, dest, own_prefixes, excluded_peers)
            if not survivors:
                assert best is None
            else:
                expected = min(r.preference_key() for r in survivors)
                assert best.preference_key() == expected
                assert best.is_local or rib.get(dest, best.peer) is best
