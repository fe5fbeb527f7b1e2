"""The figure-reproduction registry and its one runner.

A figure is a :class:`~repro.figures.common.Figure` declaration — id,
caption, plotted metrics, the grids of trials behind it (campaign
documents: ``FIGURES["fig01"].grids(QUICK)[0].to_dict()`` is what
``repro-bgp campaign run`` and the service take) and the paper's claims
about the resulting series (:mod:`repro.figures.paper` holds the
paper's 13 figures and the data-plane companion,
:mod:`repro.figures.ablations` the ablations).  :func:`compute_figure`
is the only code that runs one; the CLI (``repro-bgp sweep --figure
fig03``) and the benchmark suite both call it, and tell it how to run
through its keywords.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.core.sweep import Series
from repro.figures import ablations, paper
from repro.figures.common import (
    FULL,
    PROFILES,
    QUICK,
    Check,
    Figure,
    FigureOutput,
    ScaleProfile,
    resolve_profile,
)
from repro.obs.session import ObsSession
from repro.store.campaign import run_campaign
from repro.store.result_store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchOutcome

#: Every declared figure by id: the paper's in figure order, then the
#: ablations (the section order of EXPERIMENTS.md).
FIGURES: Dict[str, Figure] = {
    entry.figure_id: entry
    for module in (paper, ablations)
    for entry in vars(module).values()
    if isinstance(entry, Figure)
}


def compute_figure(
    figure_id: str,
    scale: Union[str, ScaleProfile, None] = None,
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    obs: Optional[ObsSession] = None,
    on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
) -> FigureOutput:
    """Run one figure's grids and evaluate the paper's claims on them.

    ``scale`` is a profile, a profile name, or None for
    ``REPRO_BENCH_SCALE`` / the quick default.  Each grid runs as one
    :func:`~repro.store.campaign.run_campaign` with the four keywords
    handed through, so figures that share trials (Figs 1/2, 10/11, every
    constant-0.5 column) share them through ``store``, which also gets
    one campaign row per grid; without a store the grids run storeless.
    Every grid's outcomes reach the one ``on_outcome`` hook, so a
    monitor sees the whole figure as one run.

    A figure that plots data-plane unreachability needs a session that
    monitors the data plane: the caller's when it does (so its sink sees
    the transitions), a private one otherwise.
    """
    if figure_id not in FIGURES:
        raise KeyError(
            f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
        )
    figure = FIGURES[figure_id]
    profile = (
        scale if isinstance(scale, ScaleProfile) else resolve_profile(scale)
    )
    if "unreachable" in figure.metrics and not (
        obs is not None and obs.dataplane_enabled
    ):
        obs = ObsSession(dataplane=True)
    series: List[Series] = []
    for campaign in figure.grids(profile):
        series += run_campaign(
            campaign, store, jobs=jobs, obs=obs, on_outcome=on_outcome
        ).series
    return FigureOutput(
        figure_id=figure_id,
        caption=figure.caption,
        series=series,
        metrics=figure.metrics,
        checks=figure.checks(profile, series),
        profile_name=profile.name,
    )


__all__ = [
    "Check",
    "FIGURES",
    "FULL",
    "Figure",
    "FigureOutput",
    "PROFILES",
    "QUICK",
    "ScaleProfile",
    "compute_figure",
    "resolve_profile",
]
