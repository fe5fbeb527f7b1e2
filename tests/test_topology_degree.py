"""Unit tests for degree sequences: specs, graphicality, realization."""

import random
from collections import Counter

import pytest

from repro.topology.degree import (
    DegreeSequenceError,
    InternetDegreeDistribution,
    SkewedDegreeSpec,
    connect_graph,
    havel_hakimi_graph,
    is_graphical,
    make_graphical,
    realize_degree_sequence,
    rewire_for_randomness,
)


# ---------------------------------------------------------------------------
# Graphicality
# ---------------------------------------------------------------------------
def test_is_graphical_known_cases():
    assert is_graphical([])
    assert is_graphical([0])
    assert is_graphical([1, 1])
    assert is_graphical([2, 2, 2])          # triangle
    assert is_graphical([3, 3, 3, 3])       # K4
    assert not is_graphical([1])            # odd sum
    assert not is_graphical([3, 1, 1])      # fails Erdos-Gallai
    assert not is_graphical([4, 1, 1, 1])   # max degree too large given rest
    assert not is_graphical([5, 1, 1, 1, 1])
    assert not is_graphical([2, 2, 1])      # odd sum
    assert not is_graphical([-1, 1])


def test_is_graphical_rejects_degree_ge_n():
    assert not is_graphical([3, 1, 1])
    assert not is_graphical([2, 2])


def test_make_graphical_fixes_parity():
    fixed = make_graphical([2, 2, 1])
    assert is_graphical(fixed)
    assert sum(fixed) % 2 == 0


def test_make_graphical_preserves_already_good():
    seq = [3, 3, 2, 2, 2]
    assert sorted(make_graphical(seq)) == sorted(seq)


def test_make_graphical_clips_excessive_degrees():
    fixed = make_graphical([10, 1, 1, 1])
    assert is_graphical(fixed)
    assert max(fixed) <= 3


def test_make_graphical_rejects_tiny_input():
    with pytest.raises(DegreeSequenceError):
        make_graphical([1])


# ---------------------------------------------------------------------------
# Havel-Hakimi
# ---------------------------------------------------------------------------
def test_havel_hakimi_realizes_exact_degrees():
    seq = [3, 3, 2, 2, 2]
    assert is_graphical(seq)
    edges = havel_hakimi_graph(seq)
    degree = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    assert [degree[i] for i in range(len(seq))] == seq


def test_havel_hakimi_produces_simple_graph():
    seq = [4, 3, 3, 2, 2, 2]
    edges = havel_hakimi_graph(seq)
    assert len(edges) == len(set(edges))
    assert all(a != b for a, b in edges)


def test_havel_hakimi_rejects_non_graphical():
    with pytest.raises(DegreeSequenceError):
        havel_hakimi_graph([3, 1, 1])


# ---------------------------------------------------------------------------
# Rewiring / connectivity
# ---------------------------------------------------------------------------
def degrees_of(edges, n):
    degree = Counter()
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return [degree[i] for i in range(n)]


def test_rewire_preserves_degrees_and_simplicity():
    seq = [3, 3, 3, 3, 2, 2, 2, 2]
    edges = havel_hakimi_graph(seq)
    rng = random.Random(5)
    rewired = rewire_for_randomness(edges, rng)
    assert degrees_of(rewired, len(seq)) == seq
    assert len(rewired) == len(set(rewired))
    assert all(a < b for a, b in rewired)


def test_rewire_rejects_duplicate_input():
    with pytest.raises(DegreeSequenceError):
        rewire_for_randomness([(0, 1), (0, 1)], random.Random(0))


def test_connect_graph_merges_components():
    # Two disjoint triangles.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    rng = random.Random(1)
    connected = connect_graph(edges, 6, rng)
    assert degrees_of(connected, 6) == [2] * 6
    adj = {i: set() for i in range(6)}
    for a, b in connected:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    assert seen == set(range(6))


def test_realize_degree_sequence_end_to_end():
    rng = random.Random(7)
    seq = [8] * 6 + [2] * 14
    edges = realize_degree_sequence(seq, rng, connected=True)
    realized = degrees_of(edges, len(seq))
    # The repair step may shave at most a little; shape must be preserved.
    assert sum(realized) == sum(make_graphical(seq))
    assert len(edges) == len(set(edges))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
def test_paper_specs_average_degrees():
    def mean_degree(spec):
        seq = spec.sample(10000, random.Random(1))
        return sum(seq) / len(seq)

    assert mean_degree(SkewedDegreeSpec.paper_70_30()) == pytest.approx(3.8, rel=0.03)
    assert mean_degree(SkewedDegreeSpec.paper_50_50()) == pytest.approx(3.75, rel=0.03)
    assert mean_degree(SkewedDegreeSpec.paper_85_15()) == pytest.approx(3.8, rel=0.03)
    assert mean_degree(SkewedDegreeSpec.paper_50_50_dense()) == pytest.approx(7.75, rel=0.03)


def test_skewed_sample_class_split_is_exact():
    spec = SkewedDegreeSpec.paper_70_30()
    rng = random.Random(3)
    seq = spec.sample(100, rng)
    low = sum(1 for d in seq if d <= 3)
    high = sum(1 for d in seq if d == 8)
    assert low == 70
    assert high == 30


def test_skewed_sample_degrees_within_ranges():
    spec = SkewedDegreeSpec(0.5, (1, 3), (5, 6))
    seq = spec.sample(40, random.Random(1))
    assert all(1 <= d <= 3 or 5 <= d <= 6 for d in seq)


def test_skewed_spec_validation():
    with pytest.raises(ValueError):
        SkewedDegreeSpec(0.0)
    with pytest.raises(ValueError):
        SkewedDegreeSpec(1.0)
    with pytest.raises(ValueError):
        SkewedDegreeSpec(0.5, (0, 3))
    with pytest.raises(ValueError):
        SkewedDegreeSpec(0.5, (3, 1))


def test_skewed_sample_needs_two_nodes():
    with pytest.raises(ValueError):
        SkewedDegreeSpec.paper_70_30().sample(1, random.Random(0))


def test_internet_distribution_statistics():
    dist = InternetDegreeDistribution()
    seq = dist.sample(5000, random.Random(2))
    assert max(seq) <= 40
    assert min(seq) >= 1
    low_share = sum(1 for d in seq if d <= 3) / len(seq)
    # The paper: ~70% of ASes connect to fewer than 4 others.
    assert 0.6 <= low_share <= 0.95
    assert 1.5 <= sum(seq) / len(seq) <= 5.0


def test_internet_distribution_validation():
    with pytest.raises(ValueError):
        InternetDegreeDistribution(alpha=1.0)
    with pytest.raises(ValueError):
        InternetDegreeDistribution(min_degree=5, max_degree=2)
    with pytest.raises(ValueError):
        InternetDegreeDistribution().sample(1, random.Random(0))
