"""Series — the curves behind every figure.

Each figure in the paper is a family of *series*: convergence delay (or
message count) as a function of failure size or MRAI, one series per scheme
or topology.  A grid of ``(label, x, spec)`` cells x seeds runs as one
campaign (:func:`repro.store.campaign.run_campaign`), whose fold
(:func:`grid_series`) produces the :class:`Series` objects;
:mod:`repro.analysis.report` renders them as the text tables recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bgp.mrai import ConstantMRAI
from repro.core.batch import GridCell
from repro.core.experiment import ExperimentResult, ExperimentSpec


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
