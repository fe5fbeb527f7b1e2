"""Failure scenario construction.

A :class:`FailureScenario` is a pure description — the set of routers to
kill plus metadata — derived from a topology.  Injection happens in
:meth:`repro.bgp.network.BGPNetwork.fail_nodes`; keeping scenarios as data
lets one scenario be replayed under many protocol configurations, which is
how every figure in the paper is produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.topology.graph import GRID_SIZE, Topology


@dataclass(frozen=True)
class FailureScenario:
    """A set of routers that fail simultaneously."""

    nodes: FrozenSet[int]
    kind: str
    description: str = ""
    center: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a failure scenario must fail at least one node")

    @property
    def size(self) -> int:
        return len(self.nodes)


def geographic_failure(
    topology: Topology,
    fraction: float,
    center: Optional[Tuple[float, float]] = None,
) -> FailureScenario:
    """Fail the ``fraction`` of routers closest to ``center``.

    This realizes the paper's contiguous-area failures: conceptually a disc
    around the center grows until it swallows the requested share of the
    network; every router inside fails.  The default center is the middle
    of the grid, the paper's choice "to avoid edge effects".  Distance ties
    break by node id, so scenarios are deterministic.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if topology.num_routers == 0:
        raise ValueError(
            "cannot derive a geographic failure from an empty topology"
        )
    if center is None:
        center = (GRID_SIZE / 2.0, GRID_SIZE / 2.0)
    count = max(1, round(topology.num_routers * fraction))
    ordered = topology.nodes_by_distance(*center)
    victims = frozenset(ordered[:count])
    return FailureScenario(
        nodes=victims,
        kind="geographic",
        description=(
            f"{count} routers ({fraction:.1%}) around "
            f"({center[0]:.0f},{center[1]:.0f})"
        ),
        center=center,
    )


def random_failure(
    topology: Topology,
    fraction: float,
    rng: random.Random,
) -> FailureScenario:
    """Fail a uniformly random ``fraction`` of routers (scattered failure)."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if topology.num_routers == 0:
        raise ValueError(
            "cannot derive a random failure from an empty topology"
        )
    count = max(1, round(topology.num_routers * fraction))
    if count > topology.num_routers:
        raise ValueError(
            f"cannot fail {count} routers: topology only has "
            f"{topology.num_routers}"
        )
    victims = frozenset(rng.sample(topology.node_ids(), count))
    return FailureScenario(
        nodes=victims,
        kind="random",
        description=f"{count} routers ({fraction:.1%}) scattered",
    )
