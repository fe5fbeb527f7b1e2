"""The parameter-selection theory the paper calls for.

Sec 5: "In order to use this type of scheme in real networks, it is
necessary to develop a suitable theory for choosing various parameters".
:func:`recommend_mrai` estimates, from first principles, the smallest MRAI
at which the busiest router keeps up with the update load a failure of a
given size generates; :func:`recommend_ladder` turns that into the level
set for :class:`~repro.core.dynamic_mrai.DynamicMRAI`.

The load model is deliberately transparent rather than exact: during
re-convergence after a failure touching ``k`` destinations, a router of
degree ``d`` receives on the order of ``d x k x E`` updates, where ``E``
is the mean number of times one (destination, neighbor) slot changes
during path exploration — empirically 1.5-3 for shortest-path selection.
Those updates arrive over roughly the convergence period, which per-peer
rate limiting organizes into MRAI rounds: each neighbor delivers at most
``k`` updates per round.  The router keeps up iff it can process one
round's worth of arrivals (``d x k`` messages at worst) within one MRAI,
giving ``MRAI* ~ d x k x mean_service``.  Below that the queue grows
without bound until exploration ends (the left arm of the paper's V); far
above it, rounds idle (the right arm).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.topology.graph import Topology


def recommend_mrai(
    topology: Topology,
    failure_fraction: float,
    mean_service: float = 0.0155,
) -> float:
    """The smallest MRAI keeping the busiest router unsaturated.

    ``MRAI* ~ d_high x k x mean_service`` where ``d_high`` is the largest
    node degree and ``k`` the number of destinations a failure of the
    given fraction touches (one prefix per AS).  Checked against the
    paper's measured optima on 120-node 70-30 topologies
    (d_high 8, mean_service 15.5 ms): 1% -> 0.25 s (paper ~0.5), 5% ->
    0.74 (paper ~1.25), 10% -> 1.5, 20% -> 3.0 (paper 2.25) — within the
    factor-of-2 the heuristic promises, with the right growth.
    """
    if not (0.0 < failure_fraction <= 1.0):
        raise ValueError("failure_fraction must be in (0, 1]")
    if mean_service <= 0:
        raise ValueError("mean_service must be positive")
    degrees = topology.degree_sequence()
    if not degrees:
        raise ValueError("empty topology")
    d_high = degrees[0]
    prefixes = len(topology.as_numbers())
    affected = max(1, round(prefixes * failure_fraction))
    return d_high * affected * mean_service


def recommend_ladder(
    topology: Topology,
    fractions: Sequence[float] = (0.02, 0.05, 0.20),
    mean_service: float = 0.0155,
    floor: float = 0.25,
) -> Tuple[float, ...]:
    """A dynamic-MRAI level ladder from the analytic per-size optima.

    One level per failure-size regime, clamped below by ``floor`` (values
    much under the link delay stop mattering) and deduplicated ascending.
    Feed the result to :class:`~repro.core.dynamic_mrai.DynamicMRAI` for
    networks where no Fig-3-style sweep is available — the paper's stated
    obstacle to deploying the scheme on "large networks like the Internet".
    """
    if not fractions:
        raise ValueError("need at least one failure fraction")
    levels = sorted(
        {
            max(floor, round(recommend_mrai(topology, f, mean_service), 2))
            for f in fractions
        }
    )
    return tuple(levels)
