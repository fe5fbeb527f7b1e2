"""Multi-router-per-AS ("realistic") topologies — the Fig 13 networks.

Construction follows Sec 3.1 of the paper:

* the number of routers in each AS is drawn from a heavy-tailed distribution
  (a bounded Pareto here, range 1-100 in the paper);
* each AS owns a grid region whose area is proportional to its size (a
  perfect size/extent correlation, after Lakhina et al. [19]) and its routers
  are placed inside it;
* inter-AS degrees come from the Internet-derived distribution capped at 40,
  and the *highest degrees are assigned to the largest ASes* (after
  Tangmunarunkit et al. [20]);
* routers inside an AS are wired into a connected intra-AS graph (a random
  spanning tree plus a configurable fraction of extra chords);
* each inter-AS adjacency terminates at a randomly chosen border router on
  both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.topology.degree import (
    InternetDegreeDistribution,
    realize_degree_sequence,
)
from repro.topology.graph import (
    DEFAULT_LINK_DELAY,
    GRID_SIZE,
    Router,
    Topology,
)
from repro.topology.placement import (
    place_on_grid,
    place_within_region,
    region_extent_for_size,
)

#: The fewest ASes a multi-router topology can have.
MIN_ASES = 3


@dataclass(frozen=True)
class MultiRouterSpec:
    """Parameters for a multi-router-per-AS topology.

    The paper's configuration is ``MultiRouterSpec(num_ases=120,
    max_routers_per_as=100)``; the defaults here are scaled down so that the
    simulations stay tractable in pure Python while preserving the structure
    (heavy-tailed AS sizes, size-correlated degree and extent).
    """

    num_ases: int = 40
    min_routers_per_as: int = 1
    max_routers_per_as: int = 12
    pareto_alpha: float = 1.2
    intra_as_chord_fraction: float = 0.3
    #: Fraction of an AS's routers that act as border routers.  Real ASes
    #: terminate their eBGP sessions on a small set of border routers, which
    #: is what concentrates update load on high-degree routers — the effect
    #: the paper's Fig 13 topologies exhibit.
    border_router_fraction: float = 0.35
    #: AS-level degree distribution.  alpha=1.6 keeps ~70% of ASes below
    #: degree 4 while matching the paper's reported ~3.4 average *after*
    #: graphicality repair at these AS counts (repair shaves the heaviest
    #: degrees, so the raw distribution must aim slightly higher).
    degree_distribution: InternetDegreeDistribution = field(
        default_factory=lambda: InternetDegreeDistribution(alpha=1.6)
    )

    def __post_init__(self) -> None:
        if self.num_ases < MIN_ASES:
            raise ValueError(f"need at least {MIN_ASES} ASes")
        if not (1 <= self.min_routers_per_as <= self.max_routers_per_as):
            raise ValueError("bad router count range")
        if self.pareto_alpha <= 0:
            raise ValueError("pareto_alpha must be positive")
        if not (0.0 <= self.intra_as_chord_fraction <= 1.0):
            raise ValueError("chord fraction must be in [0, 1]")
        if not (0.0 < self.border_router_fraction <= 1.0):
            raise ValueError("border_router_fraction must be in (0, 1]")

    def sample_as_size(self, rng: random.Random) -> int:
        """Draw one AS size from a bounded Pareto distribution."""
        lo = float(self.min_routers_per_as)
        hi = float(self.max_routers_per_as)
        if lo == hi:
            return int(lo)
        alpha = self.pareto_alpha
        u = rng.random()
        # Inverse-CDF of the bounded Pareto on [lo, hi].
        x = (
            -(u * hi**alpha - u * lo**alpha - hi**alpha)
            / (hi**alpha * lo**alpha)
        ) ** (-1.0 / alpha)
        return max(int(lo), min(int(hi), int(round(x))))


def multi_router_topology(
    spec: Optional[MultiRouterSpec] = None,
    seed: int = 0,
    link_delay: float = DEFAULT_LINK_DELAY,
    grid_size: float = GRID_SIZE,
    name: Optional[str] = None,
) -> Topology:
    """Generate a multi-router-per-AS topology per ``spec``."""
    if spec is None:
        spec = MultiRouterSpec()
    rng = random.Random(seed)

    # 1. AS sizes (heavy-tailed) and inter-AS degree sequence.
    as_sizes = [spec.sample_as_size(rng) for __ in range(spec.num_ases)]
    degree_seq = spec.degree_distribution.sample(spec.num_ases, rng)
    # Assign the highest degrees to the largest ASes: sort both and match.
    size_order = sorted(range(spec.num_ases), key=lambda i: (-as_sizes[i], i))
    sorted_degrees = sorted(degree_seq, reverse=True)
    as_degree: Dict[int, int] = {}
    for rank, as_index in enumerate(size_order):
        as_degree[as_index] = sorted_degrees[rank]

    # 2. AS-level graph realized from the degree sequence.
    as_edges = realize_degree_sequence(
        [as_degree[i] for i in range(spec.num_ases)], rng, connected=True
    )

    # 3. Place AS regions and routers.
    total_routers = sum(as_sizes)
    as_centers = place_on_grid(list(range(spec.num_ases)), rng, grid_size)
    topo = Topology(name=name or f"multirouter-{spec.num_ases}as")
    as_router_ids: Dict[int, List[int]] = {}
    next_id = 0
    for as_index in range(spec.num_ases):
        size = as_sizes[as_index]
        ids = list(range(next_id, next_id + size))
        next_id += size
        as_router_ids[as_index] = ids
        half_extent = region_extent_for_size(size, total_routers, grid_size)
        positions = place_within_region(
            ids, as_centers[as_index], half_extent, rng, grid_size
        )
        for rid in ids:
            x, y = positions[rid]
            topo.add_router(Router(node_id=rid, asn=as_index, x=x, y=y))

    # 4. Intra-AS wiring: random spanning tree + chords.
    for as_index, ids in as_router_ids.items():
        _wire_intra_as(topo, ids, spec.intra_as_chord_fraction, rng, link_delay)

    # 5. Inter-AS links terminate at the ASes' border routers: a small
    # subset of each AS's routers carries all of its eBGP sessions.
    borders: Dict[int, List[int]] = {}
    for as_index, ids in as_router_ids.items():
        count = max(1, round(len(ids) * spec.border_router_fraction))
        borders[as_index] = rng.sample(ids, count)
    for a_as, b_as in sorted(set(as_edges)):
        a_router = rng.choice(borders[a_as])
        b_router = rng.choice(borders[b_as])
        if not topo.has_link(a_router, b_router):
            topo.connect(a_router, b_router, delay=link_delay, kind="inter_as")
    topo.validate()
    return topo


def _wire_intra_as(
    topo: Topology,
    ids: List[int],
    chord_fraction: float,
    rng: random.Random,
    link_delay: float,
) -> None:
    """Connect the routers of one AS: random tree plus extra chords."""
    if len(ids) <= 1:
        return
    shuffled = list(ids)
    rng.shuffle(shuffled)
    for i in range(1, len(shuffled)):
        parent = shuffled[rng.randrange(i)]
        topo.connect(parent, shuffled[i], delay=link_delay, kind="intra_as")
    n = len(ids)
    extra = int(chord_fraction * n)
    attempts = 0
    while extra > 0 and attempts < 20 * n:
        attempts += 1
        a, b = rng.sample(ids, 2)
        if not topo.has_link(a, b):
            topo.connect(a, b, delay=link_delay, kind="intra_as")
            extra -= 1
