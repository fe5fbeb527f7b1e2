"""Shared infrastructure for the figure-reproduction harness.

A :class:`ScaleProfile` fixes the experiment scale:

* ``quick`` — 60-node topologies, single trial, coarse sweep grids.  Runs
  the full 13-figure suite in minutes; the default for the benchmark
  suite.  The phenomena (V-shapes, moving optima, scheme orderings) are
  already present at this scale.
* ``full`` — the paper's 120-node topologies, 3 trials per point, dense
  grids.  Expect an hour or more for the complete suite; enable with
  ``REPRO_BENCH_SCALE=full``.

A figure is a :class:`Figure` declaration: the grids of trials behind
the plot (``grids(profile)`` — each a
:class:`~repro.store.campaign.Campaign`, the same document ``campaign
run`` and the service take, built by :func:`grid`) and the paper's
qualitative claims about the resulting series (``checks(profile,
series)`` — who wins, by roughly what factor, where the crossover
falls).  Neither builds a topology nor runs a trial;
:func:`repro.figures.compute_figure` does, and builds the
:class:`FigureOutput`.  Strict checks are asserted by the benchmark
suite; soft checks are recorded but tolerated, since single-trial quick
runs are noisy the same way the paper's individual runs were.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from repro.analysis.report import format_figure
from repro.core.sweep import Series
from repro.specs.scheme_sets import scheme_set
from repro.store.campaign import Campaign

#: Environment variable selecting the default scale.
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


@dataclass(frozen=True)
class ScaleProfile:
    """Experiment scale: topology size, trial count and sweep grids."""

    name: str
    nodes: int
    seeds: Tuple[int, ...]
    fractions: Tuple[float, ...]
    mrai_grid: Tuple[float, ...]
    #: The three headline MRAI values swept in Figs 1/2/6/7/10/11.
    mrai_three: Tuple[float, float, float]
    #: Ladder for the dynamic scheme (the per-failure-size optima).
    dynamic_levels: Tuple[float, ...]
    #: Failure sizes for the Fig 3 delay-vs-MRAI curves.
    fig3_fractions: Tuple[float, ...]
    #: Number of ASes in the Fig 13 multi-router topologies.
    multirouter_ases: int

    @property
    def smallest_fraction(self) -> float:
        return self.fractions[0]

    @property
    def largest_fraction(self) -> float:
        return self.fractions[-1]


QUICK = ScaleProfile(
    name="quick",
    nodes=60,
    seeds=(1,),
    fractions=(1.0 / 60.0, 0.05, 0.10, 0.20),
    mrai_grid=(0.25, 0.5, 1.25, 2.25, 3.5),
    mrai_three=(0.5, 1.25, 2.25),
    dynamic_levels=(0.5, 1.25, 2.25),
    fig3_fractions=(1.0 / 60.0, 0.05, 0.10),
    multirouter_ases=48,
)

FULL = ScaleProfile(
    name="full",
    nodes=120,
    seeds=(1, 2, 3),
    fractions=(0.01, 0.025, 0.05, 0.10, 0.15, 0.20),
    mrai_grid=(0.25, 0.5, 0.75, 1.0, 1.25, 1.75, 2.25, 3.0, 4.0),
    mrai_three=(0.5, 1.25, 2.25),
    dynamic_levels=(0.5, 1.25, 2.25),
    fig3_fractions=(0.01, 0.05, 0.10),
    multirouter_ases=60,
)

PROFILES: Dict[str, ScaleProfile] = {"quick": QUICK, "full": FULL}


def resolve_profile(scale: str | None = None) -> ScaleProfile:
    """Profile by name, by ``REPRO_BENCH_SCALE``, or the quick default."""
    if scale is None:
        scale = os.environ.get(SCALE_ENV_VAR, "quick")
    try:
        return PROFILES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
# Checks and outputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """One qualitative claim from the paper, evaluated on our data."""

    name: str
    passed: bool
    detail: str = ""
    #: Strict checks are asserted by the benchmarks; soft ones recorded.
    strict: bool = True

    def __str__(self) -> str:
        mark = "PASS" if self.passed else ("FAIL" if self.strict else "soft-fail")
        strictness = "" if self.strict else " [soft]"
        detail = f" — {self.detail}" if self.detail else ""
        return f"  [{mark}]{strictness} {self.name}{detail}"


@dataclass
class FigureOutput:
    """Everything a reproduced figure yields."""

    figure_id: str
    caption: str
    series: List[Series]
    metrics: Tuple[str, ...]
    checks: List[Check] = field(default_factory=list)
    profile_name: str = "quick"

    def render(self) -> str:
        body = format_figure(
            self.figure_id, self.caption, self.series, self.metrics
        )
        check_lines = "\n".join(str(c) for c in self.checks)
        footer = f"(scale profile: {self.profile_name})"
        return f"{body}\n\nShape checks:\n{check_lines}\n{footer}"


def check_ratio(
    name: str,
    numerator: float,
    denominator: float,
    minimum: float,
    strict: bool = True,
) -> Check:
    """Check ``numerator / denominator >= minimum``."""
    ratio = numerator / denominator if denominator else float("inf")
    return Check(
        name=name,
        passed=ratio >= minimum,
        detail=f"ratio {ratio:.2f} (needed >= {minimum:g})",
        strict=strict,
    )


def check_le(
    name: str,
    lhs: float,
    rhs: float,
    slack: float = 1.0,
    strict: bool = True,
) -> Check:
    """Check ``lhs <= rhs * slack``."""
    return Check(
        name=name,
        passed=lhs <= rhs * slack,
        detail=f"{lhs:.2f} vs {rhs:.2f} (slack x{slack:g})",
        strict=strict,
    )


# ---------------------------------------------------------------------------
# Figure declarations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """One figure as data: what to run and what the paper claims of it.

    ``grids(profile)`` returns the campaigns whose series, concatenated
    in order, are the figure's curves; ``checks(profile, series)`` is a
    pure function of those series.  Neither executes a trial nor reads
    process state — how the grids run (jobs, store, session, progress)
    is :func:`repro.figures.compute_figure`'s arguments.
    """

    figure_id: str
    caption: str
    #: Series columns the figure plots: "delay", "messages", "unreachable".
    metrics: Tuple[str, ...]
    grids: Callable[[ScaleProfile], Sequence[Campaign]]
    checks: Callable[[ScaleProfile, Sequence[Series]], List[Check]]


def figure(
    figure_id: str,
    caption: str,
    metrics: Tuple[str, ...],
    grids: Callable[[str, ScaleProfile], Sequence[Campaign]],
) -> Callable[[Callable], Figure]:
    """Declare a figure: decorates its ``checks(profile, series)``
    function, which becomes the :class:`Figure`.  ``grids(name,
    profile)`` is handed the figure id to name its campaigns with."""
    return lambda checks: Figure(
        figure_id, caption, metrics, partial(grids, figure_id), checks
    )


def grid(
    name: str,
    profile: ScaleProfile,
    schemes: Union[str, Mapping[str, Dict[str, Any]]],
    *,
    axis: str = "failure_fraction",
    values: Sequence[float] | None = None,
    **topology_keys: Any,
) -> Campaign:
    """One grid of a figure, as a campaign document: one series per
    scheme (``schemes`` is a ``label -> scheme dict`` mapping or the
    name of a registered scheme set) over the swept ``axis``.

    Defaults: the profile's skewed (70-30) topologies — ``topology_keys``
    override or extend the block — its failure fractions or MRAI grid,
    and its seeds.
    """
    if isinstance(schemes, str):
        schemes = scheme_set(schemes, profile)
    if values is None:
        values = (
            profile.fractions
            if axis == "failure_fraction"
            else profile.mrai_grid
        )
    return Campaign(
        name=name,
        topology={"kind": "skewed", "nodes": profile.nodes, **topology_keys},
        schemes=dict(schemes),
        axis=axis,
        values=list(values),
        seeds=list(profile.seeds),
    )


def scheme_set_grids(
    set_name: str,
) -> Callable[[str, ScaleProfile], List[Campaign]]:
    """``grids`` of the usual figure: one :func:`grid` of a registered
    scheme set at its defaults."""
    return lambda name, profile: [grid(name, profile, set_name)]
