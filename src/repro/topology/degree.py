"""Degree sequences: specification, graphicality, realization.

The paper's main instrument is a family of *skewed* degree distributions:
"70-30" means 70% of the nodes draw a low degree (1-3) and 30% get a fixed
high degree (8), tuned so the average degree is ~3.8.  This module provides

* :class:`SkewedDegreeSpec` — the low/high split, with helpers matching the
  paper's 70-30, 50-50 and 85-15 configurations;
* :class:`InternetDegreeDistribution` — a capped discrete power law standing
  in for the measured AS connectivity data of Zhang et al. [18] (70% of ASes
  with degree < 4; the paper caps the maximum degree at 40);
* Erdos-Gallai graphicality testing, sequence repair, Havel-Hakimi
  realization, degree-preserving randomization (double edge swaps) and
  connectivity repair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple


#: The fewest nodes a degree sequence (and so a skewed or Internet-like
#: topology) can have.
MIN_NODES = 2


class DegreeSequenceError(ValueError):
    """Raised when a degree sequence cannot be realized as a simple graph."""


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SkewedDegreeSpec:
    """A two-class ("skewed") degree distribution.

    ``low_fraction`` of nodes draw uniformly from ``low_range`` (inclusive);
    the rest draw uniformly from ``high_range``.  The paper's configurations:

    * 70-30: 70% degree 1-3, 30% degree 8 (avg 3.8)
    * 50-50: 50% degree 1-3, 50% degree 5-6 (avg 3.8)
    * 85-15: 85% degree 1-3, 15% degree 14 (avg 3.8)
    * 50-50 high-degree variant: highs 13-14 (avg 7.6) for Fig 5
    """

    low_fraction: float
    low_range: Tuple[int, int] = (1, 3)
    high_range: Tuple[int, int] = (8, 8)
    name: str = "skewed"

    def __post_init__(self) -> None:
        if not (0.0 < self.low_fraction < 1.0):
            raise ValueError("low_fraction must be in (0, 1)")
        for lo, hi in (self.low_range, self.high_range):
            if lo < 1 or hi < lo:
                raise ValueError(f"bad degree range ({lo}, {hi})")

    # Paper presets ------------------------------------------------------
    @classmethod
    def paper_70_30(cls) -> "SkewedDegreeSpec":
        """70% degree 1-3, 30% degree 8; the default topology (Sec 4.1)."""
        return cls(0.70, (1, 3), (8, 8), name="70-30")

    @classmethod
    def paper_50_50(cls) -> "SkewedDegreeSpec":
        """50% degree 1-3, 50% degree 5-6; same average degree 3.8 (Fig 4)."""
        return cls(0.50, (1, 3), (5, 6), name="50-50")

    @classmethod
    def paper_85_15(cls) -> "SkewedDegreeSpec":
        """85% degree 1-3, 15% degree 14; same average degree 3.8 (Fig 4)."""
        return cls(0.85, (1, 3), (14, 14), name="85-15")

    @classmethod
    def paper_50_50_dense(cls) -> "SkewedDegreeSpec":
        """50% degree 1-3, 50% degree 13-14; average degree ~7.6 (Fig 5)."""
        return cls(0.50, (1, 3), (13, 14), name="50-50-dense")

    def sample(self, n: int, rng: random.Random) -> List[int]:
        """Draw a degree sequence of length ``n`` (not yet graphicalized).

        The class split is exact (``round(n * low_fraction)`` low nodes),
        matching how the paper describes its topologies; only the in-class
        degree draw is random.
        """
        if n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes")
        n_low = round(n * self.low_fraction)
        n_low = min(max(n_low, 1), n - 1)
        degrees = [
            rng.randint(*self.low_range) for __ in range(n_low)
        ] + [
            rng.randint(*self.high_range) for __ in range(n - n_low)
        ]
        rng.shuffle(degrees)
        return degrees


@dataclass(frozen=True)
class InternetDegreeDistribution:
    """A capped discrete power law approximating measured AS degrees.

    P(degree = k) proportional to k**-alpha for k in [1, max_degree].  With
    the default ``alpha`` = 1.8 about 78% of samples fall in 1-3 and the
    expected average degree is ~3.3, matching the statistics the paper
    quotes for the real AS graph (70% of ASes connected to < 4 others;
    average ~3.4 with the maximum degree capped at 40 for 120 ASes).
    """

    alpha: float = 1.8
    max_degree: int = 40
    min_degree: int = 1

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if not (1 <= self.min_degree <= self.max_degree):
            raise ValueError("need 1 <= min_degree <= max_degree")

    def sample(self, n: int, rng: random.Random) -> List[int]:
        """Draw ``n`` degrees i.i.d. from the capped power law."""
        if n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes")
        ks = list(range(self.min_degree, self.max_degree + 1))
        weights = [k ** -self.alpha for k in ks]
        return rng.choices(ks, weights=weights, k=n)


# ---------------------------------------------------------------------------
# Graphicality
# ---------------------------------------------------------------------------
def is_graphical(sequence: Sequence[int]) -> bool:
    """Erdos-Gallai test: can ``sequence`` be realized as a simple graph?"""
    degrees = sorted(sequence, reverse=True)
    n = len(degrees)
    if n == 0:
        return True
    if any(d < 0 for d in degrees) or degrees[0] >= n:
        return False
    if sum(degrees) % 2:
        return False
    prefix = list(itertools.accumulate(degrees))
    for k in range(1, n + 1):
        lhs = prefix[k - 1]
        rhs = k * (k - 1) + sum(min(d, k) for d in degrees[k:])
        if lhs > rhs:
            return False
    return True


def make_graphical(sequence: Sequence[int], n_max: int | None = None) -> List[int]:
    """Minimally repair ``sequence`` into a graphical one.

    Repairs applied, in order: clip degrees into [1, n-1]; fix odd total by
    bumping the smallest degree by one (or shaving a largest degree when
    bumping is impossible); then, while the Erdos-Gallai condition fails,
    shave the largest degree.  The result preserves the *shape* of the input
    — which is all the paper's synthetic distributions require.
    """
    degrees = list(sequence)
    n = len(degrees)
    if n_max is None:
        n_max = n - 1
    if n < MIN_NODES:
        raise DegreeSequenceError(f"need at least {MIN_NODES} nodes")
    degrees = [min(max(d, 1), n_max) for d in degrees]
    if sum(degrees) % 2:
        # Prefer raising a low degree: it keeps the high class intact.
        idx = min(range(n), key=lambda i: (degrees[i], i))
        if degrees[idx] < n_max:
            degrees[idx] += 1
        else:
            idx = max(range(n), key=lambda i: (degrees[i], -i))
            degrees[idx] -= 1
    guard = 0
    while not is_graphical(degrees):
        guard += 1
        if guard > sum(degrees):
            raise DegreeSequenceError(
                f"could not repair degree sequence: {sorted(degrees, reverse=True)[:10]}..."
            )
        hi = max(range(n), key=lambda i: (degrees[i], -i))
        lo = min(range(n), key=lambda i: (degrees[i], i))
        if degrees[hi] - degrees[lo] >= 2:
            degrees[hi] -= 1
            degrees[lo] += 1
        else:
            # All degrees nearly equal yet non-graphical: drop a pair.
            degrees[hi] -= 1
            second = max(
                (i for i in range(n) if i != hi),
                key=lambda i: (degrees[i], -i),
            )
            degrees[second] -= 1
    return degrees


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------
def havel_hakimi_graph(sequence: Sequence[int]) -> List[Tuple[int, int]]:
    """Realize a graphical sequence as an edge list (Havel-Hakimi).

    Node ``i`` gets degree ``sequence[i]``.  Deterministic; follow with
    :func:`rewire_for_randomness` to sample a (approximately) uniform member
    of the degree-sequence family.
    """
    if not is_graphical(sequence):
        raise DegreeSequenceError("sequence is not graphical")
    remaining = [[d, i] for i, d in enumerate(sequence)]
    edges: List[Tuple[int, int]] = []
    while True:
        remaining.sort(key=lambda pair: (-pair[0], pair[1]))
        d, v = remaining[0]
        if d == 0:
            break
        if d >= len(remaining):
            raise DegreeSequenceError("sequence is not graphical (internal)")
        remaining[0][0] = 0
        for k in range(1, d + 1):
            remaining[k][0] -= 1
            if remaining[k][0] < 0:
                raise DegreeSequenceError("sequence is not graphical (internal)")
            u = remaining[k][1]
            edges.append((min(v, u), max(v, u)))
    return edges


def rewire_for_randomness(
    edges: List[Tuple[int, int]],
    rng: random.Random,
    swaps_per_edge: float = 4.0,
) -> List[Tuple[int, int]]:
    """Randomize a simple graph with degree-preserving double edge swaps.

    Picks two edges (a,b), (c,d) and rewires them to (a,d), (c,b) when that
    neither duplicates an edge nor creates a self-loop.  ``swaps_per_edge``
    successful-or-not attempts per edge is plenty to decorrelate from the
    Havel-Hakimi starting point.
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    edge_set: Set[Tuple[int, int]] = set(edge_list)
    if len(edge_set) != len(edge_list):
        raise DegreeSequenceError("input edge list has duplicates")
    m = len(edge_list)
    if m < 2:
        return edge_list
    attempts = int(m * swaps_per_edge)
    for __ in range(attempts):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        a, b = edge_list[i]
        c, d = edge_list[j]
        # Randomly orient the second edge for unbiased swaps.
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        new1 = (min(a, d), max(a, d))
        new2 = (min(c, b), max(c, b))
        if new1 in edge_set or new2 in edge_set:
            continue
        edge_set.discard((a, b))
        edge_set.discard((min(c, d), max(c, d)))
        edge_set.add(new1)
        edge_set.add(new2)
        edge_list[i] = new1
        edge_list[j] = new2
    return edge_list


def find_bridges(
    adj: Dict[int, Set[int]], nodes: Set[int]
) -> Set[Tuple[int, int]]:
    """Bridges (cut edges) within ``nodes``, as sorted tuples.

    Iterative Tarjan lowlink computation, safe for deep/path-like graphs.
    """
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    bridges: Set[Tuple[int, int]] = set()
    counter = 0
    for root in nodes:
        if root in disc:
            continue
        # Stack entries: (node, parent, iterator over neighbors).
        disc[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if u == parent:
                    continue
                if u in disc:
                    low[v] = min(low[v], disc[u])
                else:
                    disc[u] = low[u] = counter
                    counter += 1
                    stack.append((u, v, iter(adj[u])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add((min(parent, v), max(parent, v)))
    return bridges


def connect_graph(
    edges: List[Tuple[int, int]],
    n: int,
    rng: random.Random,
    max_iterations: int = 10000,
) -> List[Tuple[int, int]]:
    """Make the graph connected via degree-preserving double edge swaps.

    While more than one component exists, take a *non-bridge* edge (a, b)
    from a component that contains a cycle and any edge (c, d) from another
    component, and rewire to (a, c), (b, d): the cyclic component stays
    connected (the removed edge was on a cycle) and the other component is
    grafted on, so the component count strictly drops.  A component with a
    cycle always exists while the graph is disconnected and has at least
    n - 1 edges; sparser inputs cannot be connected degree-preservingly and
    raise :class:`DegreeSequenceError`.
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    edge_set = set(edge_list)
    if len(edge_list) < n - 1:
        raise DegreeSequenceError(
            f"{len(edge_list)} edges cannot connect {n} nodes"
        )

    def analyze():
        adj: Dict[int, Set[int]] = {i: set() for i in range(n)}
        for a, b in edge_list:
            adj[a].add(b)
            adj[b].add(a)
        seen: Set[int] = set()
        comps: List[Set[int]] = []
        for start in range(n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.add(u)
                        stack.append(u)
            comps.append(comp)
        return adj, comps

    for __ in range(max_iterations):
        adj, comps = analyze()
        if len(comps) == 1:
            return edge_list
        comp_of: Dict[int, int] = {}
        for idx, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = idx
        edges_by_comp: Dict[int, List[int]] = {}
        for i, (a, __b) in enumerate(edge_list):
            edges_by_comp.setdefault(comp_of[a], []).append(i)
        # A cyclic component has at least as many edges as nodes.
        cyclic = [
            idx
            for idx, comp in enumerate(comps)
            if len(edges_by_comp.get(idx, [])) >= len(comp)
        ]
        if not cyclic:
            raise DegreeSequenceError(
                "no component contains a cycle; sequence cannot be "
                "connected degree-preservingly"
            )
        cyc = rng.choice(cyclic)
        bridges = find_bridges(adj, comps[cyc])
        non_bridges = [
            i for i in edges_by_comp[cyc] if edge_list[i] not in bridges
        ]
        assert non_bridges, "cyclic component must contain a non-bridge edge"
        others = [idx for idx in edges_by_comp if idx != cyc]
        i = rng.choice(non_bridges)
        j = rng.choice(edges_by_comp[rng.choice(others)])
        a, b = edge_list[i]
        c, d = edge_list[j]
        if rng.random() < 0.5:
            c, d = d, c
        new1 = (min(a, c), max(a, c))
        new2 = (min(b, d), max(b, d))
        if new1 in edge_set or new2 in edge_set:
            new1 = (min(a, d), max(a, d))
            new2 = (min(b, c), max(b, c))
            if new1 in edge_set or new2 in edge_set:
                continue
        edge_set.discard(edge_list[i])
        edge_set.discard(edge_list[j])
        edge_set.add(new1)
        edge_set.add(new2)
        edge_list[i] = new1
        edge_list[j] = new2
    raise DegreeSequenceError("connectivity repair did not converge")


def ensure_connectable(sequence: Sequence[int]) -> List[int]:
    """Raise the smallest degrees until a connected realization can exist.

    A connected simple graph on n nodes needs at least n - 1 edges, i.e.
    degree sum >= 2(n - 1).  Sparse draws (possible for small n under
    heavy-tailed distributions) are minimally thickened by bumping the
    lowest degrees — the change the paper's own generator would have to
    make, since its networks are always connected.
    """
    degrees = list(sequence)
    n = len(degrees)
    needed = 2 * (n - 1)
    while sum(degrees) < needed:
        idx = min(range(n), key=lambda i: (degrees[i], i))
        degrees[idx] += 1
    return degrees


def realize_degree_sequence(
    sequence: Sequence[int],
    rng: random.Random,
    connected: bool = True,
) -> List[Tuple[int, int]]:
    """Full pipeline: thicken -> repair -> Havel-Hakimi -> randomize -> connect."""
    working = ensure_connectable(sequence) if connected else list(sequence)
    graphical = make_graphical(working)
    edges = havel_hakimi_graph(graphical)
    edges = rewire_for_randomness(edges, rng)
    if connected:
        edges = connect_graph(edges, len(graphical), rng)
    return edges
