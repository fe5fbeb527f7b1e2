"""Parameter sweeps — the machinery behind every figure.

Each figure in the paper is a family of *series*: convergence delay (or
message count) as a function of failure size or MRAI, one series per scheme
or topology.  :func:`failure_size_sweep` and :func:`mrai_sweep` produce
:class:`Series` objects; :mod:`repro.analysis.report` renders them as the
text tables recorded in EXPERIMENTS.md.  A sweep is a grid of
``(label, x, spec)`` cells x seeds and runs as one batch
(:func:`sweep_cells` over :func:`repro.core.batch.run_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.bgp.mrai import ConstantMRAI
from repro.core.batch import GridCell, run_grid
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    ProgressFn,
)
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.session import ObsSession
    from repro.store.result_store import ResultStore


#: The axes a grid can sweep; :func:`point_spec` is what each one means.
AXES = ("failure_fraction", "mrai")


def point_spec(spec: ExperimentSpec, axis: str, x: float) -> ExperimentSpec:
    """``spec`` at one value of a swept axis: ``x`` replaces the failure
    fraction, or the MRAI policy with ``ConstantMRAI(x)``."""
    if axis == "failure_fraction":
        return spec.with_(failure_fraction=x)
    if axis == "mrai":
        return spec.with_(mrai=ConstantMRAI(x))
    raise ValueError(f"unknown axis {axis!r}; choose from {AXES}")


@dataclass
class SweepPoint:
    """One x-position of a series with its aggregated result."""

    x: float
    result: ExperimentResult

    @property
    def delay(self) -> float:
        return self.result.mean_delay

    @property
    def messages(self) -> float:
        return self.result.mean_messages

    @property
    def unreachable(self) -> float:
        """Mean data-plane unreachability (node-seconds) per trial.

        Averaged over the trials that carry a data-plane summary; 0.0
        when the point ran with monitors off.
        """
        values = [
            t.dataplane["unreachable_seconds_total"]
            for t in self.result.trials
            if getattr(t, "dataplane", None)
        ]
        return sum(values) / len(values) if values else 0.0


@dataclass
class Series:
    """A labeled curve: scheme/topology vs a swept parameter."""

    label: str
    x_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, x: float, result: ExperimentResult) -> None:
        self.points.append(SweepPoint(x, result))

    @property
    def xs(self) -> List[float]:
        return [p.x for p in self.points]

    @property
    def delays(self) -> List[float]:
        return [p.delay for p in self.points]

    @property
    def message_counts(self) -> List[float]:
        return [p.messages for p in self.points]

    def delay_at(self, x: float) -> float:
        for p in self.points:
            if p.x == x:
                return p.delay
        raise KeyError(f"no point at {self.x_name}={x}")

    def messages_at(self, x: float) -> float:
        for p in self.points:
            if p.x == x:
                return p.messages
        raise KeyError(f"no point at {self.x_name}={x}")

    @property
    def unreachables(self) -> List[float]:
        return [p.unreachable for p in self.points]

    def unreachable_at(self, x: float) -> float:
        for p in self.points:
            if p.x == x:
                return p.unreachable
        raise KeyError(f"no point at {self.x_name}={x}")


def grid_series(
    cells: Sequence[GridCell],
    results: Sequence[ExperimentResult],
    x_name: str,
) -> List[Series]:
    """One :class:`Series` per cell label (first-appearance order), each
    holding its cells' folded results in grid order."""
    by_label: Dict[str, Series] = {}
    for (label, x, _spec), result in zip(cells, results):
        if label not in by_label:
            by_label[label] = Series(label=label, x_name=x_name)
        by_label[label].add(x, result)
    return list(by_label.values())


def sweep_cells(
    topology_factory: Callable[[int], Topology],
    cells: Sequence[GridCell],
    seeds: Sequence[int],
    x_name: str,
    label: str = "",
    progress: Optional[ProgressFn] = None,
    jobs: int = 1,
    store: Optional["ResultStore"] = None,
    obs: Optional["ObsSession"] = None,
) -> List[Series]:
    """Run a grid of ``(label, x, spec)`` cells as one batch.

    ``progress`` receives one :class:`Progress` tick per completed trial
    (and one for all the store hits), with totals and ETA covering the
    whole grid.  ``jobs`` selects the trial-execution backend (see
    :func:`repro.core.experiment.run_trials`); results are bit-identical
    across ``jobs`` values.  The whole grid is one
    :func:`repro.core.batch.run_grid` call: each seed's topology is built
    once, and at ``jobs > 1`` every trial of every cell is in the same
    pool run, so a one-seed sweep still keeps all workers busy.
    ``store`` enables content-addressed trial caching: already-stored
    trials are folded without re-running (see :mod:`repro.store`).
    ``obs`` observes every executed trial (see
    :class:`repro.obs.session.ObsSession`).
    """
    results = run_grid(
        topology_factory,
        cells,
        seeds,
        progress=progress,
        jobs=jobs,
        store=store,
        obs=obs,
        label=label,
    )
    return grid_series(cells, results, x_name)


def failure_size_sweep(
    topology_factory: Callable[[int], Topology],
    spec: ExperimentSpec,
    fractions: Sequence[float],
    seeds: Sequence[int],
    label: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    jobs: int = 1,
    store: Optional["ResultStore"] = None,
    obs: Optional["ObsSession"] = None,
) -> Series:
    """Sweep the failure size, holding the scheme fixed (Figs 1/2/6-11).

    One batch for the whole sweep; see :func:`sweep_cells` for
    ``progress``, ``jobs``, ``store`` and ``obs``.
    """
    label = label or spec.mrai.name
    cells = [
        (label, fraction, point_spec(spec, "failure_fraction", fraction))
        for fraction in fractions
    ]
    [series] = sweep_cells(
        topology_factory,
        cells,
        seeds,
        "failure_fraction",
        label=label,
        progress=progress,
        jobs=jobs,
        store=store,
        obs=obs,
    )
    return series


def mrai_sweep(
    topology_factory: Callable[[int], Topology],
    spec: ExperimentSpec,
    mrai_values: Sequence[float],
    seeds: Sequence[int],
    label: Optional[str] = None,
    progress: Optional[ProgressFn] = None,
    jobs: int = 1,
    store: Optional["ResultStore"] = None,
    obs: Optional["ObsSession"] = None,
) -> Series:
    """Sweep a constant MRAI, holding the failure fixed (Figs 3/4/5/12)."""
    label = label or "delay-vs-mrai"
    cells = [
        (label, value, point_spec(spec, "mrai", value))
        for value in mrai_values
    ]
    [series] = sweep_cells(
        topology_factory,
        cells,
        seeds,
        "mrai",
        label=label,
        progress=progress,
        jobs=jobs,
        store=store,
        obs=obs,
    )
    return series
