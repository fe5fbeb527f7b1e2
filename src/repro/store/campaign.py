"""Resumable experiment campaigns: a declarative sweep grid over a store.

A :class:`Campaign` is the *whole sweep as data*: topology parameters,
one :class:`~repro.core.experiment.ExperimentSpec` per scheme, a swept
axis (failure fraction or constant MRAI), and the trial seeds.  It
expands to a flat plan of :class:`~repro.core.batch.PlannedTrial`
records (:func:`campaign_keys`), each content-addressed
(:func:`repro.store.hashing.trial_key`), which buys three things at once:

* **Caching** — a trial whose key is already in the store never runs;
* **Resume** — a crashed or Ctrl-C'd campaign re-run executes only the
  missing trials (every completed trial was committed as it finished);
* **Retry** — a trial that dies in a worker (OOM-killed process, flaky
  host) is retried inside its batch, up to
  :data:`~repro.core.batch.MAX_ATTEMPTS` executions, instead of
  aborting hundreds of sibling trials.

Folding is identical to an uncached sweep: trials enter each point's
:class:`~repro.core.experiment.ExperimentResult` in seed order, whether
they came from the store or from a worker, so the resulting series
compare equal (``TrialResult`` equality — wall-clock fields excluded) to
a cold run bit for bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    TrialResult,
)
from repro.core.parallel import derive_trial_seeds
from repro.obs.session import ObsSession
from repro.obs.spans import span
from repro.sim.rng import SEED_LIMIT, SEED_RANGE
from repro.specs.blocks import policy_needs_topology
from repro.specs.fields import integer, number
from repro.specs.serialize import (
    build_spec,
    scheme_requires_topology,
    validate_scheme,
)
from repro.specs.topology import (
    topology_factory as resolve_topology_block,
    validate_topology_block,
)
from repro.store.result_store import ResultStore
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch import BatchOutcome, GridCell, PlannedTrial
    from repro.core.sweep import Series

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "campaign_keys",
    "campaign_status",
    "fold_stored",
    "load_campaign_results",
    "run_campaign",
]


class CampaignError(RuntimeError):
    """A campaign could not complete; carries the per-trial failures."""

    def __init__(
        self, message: str, failures: Sequence[Tuple[PlannedTrial, str]]
    ) -> None:
        super().__init__(message)
        self.failures = list(failures)


@dataclass
class Campaign:
    """A declarative, store-backed sweep grid.

    ``topology`` is a parameter block (``kind`` + size knobs), not a
    factory, so campaigns round-trip through JSON and mean the same
    thing on every host; each trial seed builds its own topology unless
    the block pins one with ``"seed"`` — which schemes that infer
    relationships from the topology require of a multi-seed grid.
    ``axis`` selects what varies per point
    (:func:`repro.core.sweep.point_spec`).  The figure harness declares
    its grids as campaigns too (:func:`repro.figures.common.grid`).
    """

    name: str
    topology: Dict[str, Any]
    schemes: Dict[str, Dict[str, Any]]
    axis: str
    values: List[float]
    seeds: List[int]
    store_path: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.core.sweep import AXES, point_spec

        if self.axis not in AXES:
            raise ValueError(
                f"unknown axis {self.axis!r}; choose from {AXES}"
            )
        if not self.schemes:
            raise ValueError("a campaign needs at least one scheme")
        if not self.values:
            raise ValueError("a campaign needs at least one axis value")
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        # A repeated seed would count its trial twice in every mean; a
        # repeated value would plot one point twice.  A seed the random
        # streams cannot key would fail every attempt of its trials.
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"campaign seeds must be distinct: {self.seeds}")
        if min(self.seeds) < 0 or max(self.seeds) >= SEED_LIMIT:
            raise ValueError(
                f"campaign seeds must be {SEED_RANGE}: {self.seeds}"
            )
        if len(set(self.values)) != len(self.values):
            raise ValueError(
                f"campaign axis values must be distinct: {self.values}"
            )
        # Typo-rejecting parse of the topology block, every scheme and
        # every point's spec up front: a campaign file with a bad one
        # fails here (and in `campaign validate`), not hours into the
        # grid.  Nothing builds a topology; topology-dependent pieces
        # resolve later.
        validate_topology_block(self.topology)
        one_topology = len(self.seeds) == 1 or "seed" in self.topology
        for label, scheme in self.schemes.items():
            try:
                spec = validate_scheme(scheme)
                for x in self.values:
                    point_spec(spec, self.axis, x)
                if not one_topology and policy_needs_topology(
                    scheme.get("policy")
                ):
                    raise ValueError(
                        "inferred relationships describe one topology: pin "
                        "it with 'seed' in the topology block, or list one "
                        "seed"
                    )
            except ValueError as exc:
                raise ValueError(f"scheme {label!r}: {exc}") from exc

    # ------------------------------------------------------------------
    # Declarative round-trip
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Campaign":
        """Parse a campaign document — a file or a ``/submit`` body, so
        its shape is checked here: a malformed one is a ``ValueError``
        naming the field, which every caller handles."""
        if not isinstance(data, dict):
            raise ValueError("a campaign document must be a JSON object")
        axis = data.get("axis")
        values = axis.get("values") if isinstance(axis, dict) else None
        if not isinstance(values, list) or "name" not in axis:
            raise ValueError(
                "campaign needs 'axis': {'name': ..., 'values': [...]}"
            )
        topology = data.get("topology", {"kind": "skewed"})
        schemes = data.get("schemes", {})
        if not isinstance(topology, dict):
            raise ValueError("campaign 'topology' must be an object")
        if not isinstance(schemes, dict) or not all(
            isinstance(scheme, dict) for scheme in schemes.values()
        ):
            raise ValueError(
                "campaign 'schemes' must be an object of scheme objects"
            )
        seeds = data.get("seeds")
        if isinstance(seeds, dict) and "count" in seeds:
            master = integer(seeds.get("master", 0), "seeds.master")
            if not 0 <= master < SEED_LIMIT:
                raise ValueError(
                    f"seeds.master must be {SEED_RANGE}, got {master}"
                )
            seeds = derive_trial_seeds(
                master, integer(seeds["count"], "seeds.count")
            )
        elif isinstance(seeds, list):
            seeds = [integer(s, f"seeds[{i}]") for i, s in enumerate(seeds)]
        else:
            raise ValueError(
                "campaign needs 'seeds': a list or {'master': M, 'count': N}"
            )
        values = [
            number(v, f"axis.values[{i}]") for i, v in enumerate(values)
        ]
        name = data.get("name", "campaign")
        if not isinstance(name, str) or name in ("", ".", "..") or any(
            sep in name for sep in "/\\"
        ):
            raise ValueError(
                "campaign 'name' must be a string usable as a file name "
                "(non-empty, no '/' or '\\', not '.' or '..')"
            )
        store_path = data.get("store")
        if store_path == "" or not isinstance(store_path, (str, type(None))):
            raise ValueError("campaign 'store' must be a non-empty string")
        return cls(
            name=name,
            topology=dict(topology),
            schemes={str(k): dict(v) for k, v in schemes.items()},
            axis=str(axis["name"]),
            values=values,
            seeds=seeds,
            store_path=store_path,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Campaign":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "topology": dict(self.topology),
            "schemes": {k: dict(v) for k, v in self.schemes.items()},
            "axis": {"name": self.axis, "values": list(self.values)},
            "seeds": list(self.seeds),
        }
        if self.store_path is not None:
            data["store"] = self.store_path
        return data

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def topology_factory(self) -> Callable[[int], Topology]:
        """Per-seed topology builder from the parameter block."""
        return resolve_topology_block(self.topology)

    def _representative_topology(self) -> Topology:
        """The seed[0] topology, built once per campaign instance.

        Topology-resolved schemes (``adaptive``/``theory`` MRAI,
        inferred policy relationships) are fixed against this topology,
        so the resulting specs are deterministic — and hence cacheable
        and resumable — across the whole grid.
        """
        topo = getattr(self, "_rep_topology", None)
        if topo is None:
            topo = self.topology_factory()(self.seeds[0])
            self._rep_topology = topo
        return topo

    def base_spec(self, label: str) -> ExperimentSpec:
        scheme = self.schemes[label]
        if scheme_requires_topology(scheme):
            return build_spec(scheme, topology=self._representative_topology())
        return build_spec(scheme)

    def point_spec(self, label: str, x: float) -> ExperimentSpec:
        from repro.core.sweep import point_spec

        return point_spec(self.base_spec(label), self.axis, x)

    def cells(self) -> List[GridCell]:
        """The grid's ``(label, x, point spec)`` cells, scheme-major."""
        return [
            (label, x, self.point_spec(label, x))
            for label in self.schemes
            for x in self.values
        ]

    @property
    def total_trials(self) -> int:
        return len(self.schemes) * len(self.values) * len(self.seeds)


# ---------------------------------------------------------------------------
# Status
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PointStatus:
    label: str
    x: float
    done: int
    total: int
    #: Trials of this cell that failed in the most recent recorded run
    #: and are still missing from the store (0 once a retry lands them).
    failed: int = 0


@dataclass
class CampaignStatus:
    """How much of a campaign's grid is already banked in a store."""

    name: str
    total: int
    cached: int
    points: List[PointStatus] = field(default_factory=list)
    history: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def missing(self) -> int:
        return self.total - self.cached

    @property
    def complete(self) -> bool:
        return self.cached == self.total

    def render(self) -> str:
        lines = [
            f"campaign {self.name}: {self.cached}/{self.total} trials "
            f"cached ({self.missing} missing)"
        ]
        for p in self.points:
            mark = "done" if p.done == p.total else f"{p.done}/{p.total}"
            if p.failed:
                mark += f" ({p.failed} failed)"
            lines.append(f"  {p.label:24s} x={p.x:<10g} {mark}")
        for run in self.history:
            manifest = run["manifest"]
            lines.append(
                f"  run {run['created_utc']} "
                f"(rev {str(run['git_rev'])[:12]}): "
                f"{manifest.get('executed', '?')} executed, "
                f"{manifest.get('cache_hits', '?')} cached"
            )
        return "\n".join(lines)


def campaign_keys(campaign: Campaign) -> List[PlannedTrial]:
    """The campaign's keyed plan, in (scheme, axis value, seed) order —
    the fold order an uncached sweep uses.

    The one expansion (:func:`repro.core.batch.plan_grid`, topologies
    built and digested once per seed) behind ``run_campaign``,
    ``campaign_status``, ``load_campaign_results`` and the service's
    submission planner, so all of them always agree on keys.
    """
    from repro.core.batch import plan_grid

    with span("campaign.expand", trials=campaign.total_trials):
        return plan_grid(
            campaign.topology_factory(),
            campaign.cells(),
            campaign.seeds,
        )


def _campaign_results(
    campaign: Campaign, trials: Sequence[TrialResult]
) -> Tuple[List[Series], Dict[Tuple[str, float], ExperimentResult]]:
    """Per-scheme series and per-point results of plan-ordered trials."""
    from repro.core.batch import fold_grid
    from repro.core.sweep import grid_series

    cells = campaign.cells()
    results = fold_grid(cells, campaign.seeds, trials)
    return grid_series(cells, results, campaign.axis), {
        (label, x): result for (label, x, _spec), result in zip(cells, results)
    }


def campaign_status(
    campaign: Campaign, store: ResultStore
) -> CampaignStatus:
    """Grid completeness against a store (read-only: no hit counters).

    ``failed`` per cell comes from the most recent recorded run's
    failure manifest: a trial counts as failed only while it is *still
    missing* from the store, so a successful retry clears the flag.
    """
    history = list(store.iter_campaigns(campaign.name))
    recorded_failures: Dict[Tuple[str, float, int], bool] = {}
    if history:
        for failure in history[-1]["manifest"].get("failures", []):
            recorded_failures[
                (
                    str(failure["label"]),
                    float(failure["x"]),
                    int(failure["seed"]),
                )
            ] = True
    per_point: Dict[Tuple[str, float], List[int]] = {}
    cached = 0
    for trial in campaign_keys(campaign):
        cell = per_point.setdefault((trial.label, trial.x), [0, 0, 0])
        cell[1] += 1
        if store.has(trial.key):
            cell[0] += 1
            cached += 1
        elif recorded_failures.get((trial.label, trial.x, trial.seed)):
            cell[2] += 1
    return CampaignStatus(
        name=campaign.name,
        total=campaign.total_trials,
        cached=cached,
        points=[
            PointStatus(label, x, done, total, failed)
            for (label, x), (done, total, failed) in per_point.items()
        ],
        history=history,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign run produced (cached + fresh, folded)."""

    campaign: Campaign
    series: List[Series]
    results: Dict[Tuple[str, float], ExperimentResult]
    cache_hits: int
    cache_misses: int
    executed: int
    retried: int
    wall_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    def summary(self) -> str:
        truncated = sum(r.truncated for r in self.results.values())
        return (
            f"campaign {self.campaign.name}: "
            f"{self.cache_hits + self.cache_misses} trials — "
            f"{self.cache_hits} cached ({self.cache_hit_rate:.0%}), "
            f"{self.executed} executed"
            + (f", {self.retried} retried" if self.retried else "")
            + (f", {truncated} truncated" if truncated else "")
            + f" in {self.wall_seconds:.1f}s"
        )


def run_campaign(
    campaign: Campaign,
    store: Optional[ResultStore] = None,
    *,
    jobs: int = 1,
    on_outcome: Optional[Callable[[BatchOutcome], None]] = None,
    obs: Optional[ObsSession] = None,
) -> CampaignResult:
    """Run (or resume) a campaign against its store.

    ``store`` defaults to one opened at the campaign's ``store_path``;
    a campaign with neither runs storeless (every trial executes,
    nothing is banked and no manifest is recorded).  Already-stored
    trials are skipped; missing trials run — over a process pool when
    ``jobs > 1`` — and are committed to the store from the parent as
    each completes, so interrupting at any point loses at most the
    trials currently in flight.  A failing trial is retried inside the
    batch, up to :data:`~repro.core.batch.MAX_ATTEMPTS` executions;
    trials that exhaust them raise :class:`CampaignError` (the completed
    ones are already stored, so the re-run is incremental).
    ``on_outcome`` is :func:`~repro.core.batch.run_batch`'s per-trial
    hook: it sees every settled trial, store hits and failed attempts
    included, as a :class:`~repro.core.batch.BatchOutcome`.

    Every trial enters its point's :class:`ExperimentResult` in seed
    order, cached and fresh alike — the folded series equal an uncached
    run's.  The run is recorded as a manifest row in the store, and
    ``obs`` (when given) gets the manifest; a session that samples runs
    every trial and banks none (:func:`~repro.core.batch.run_batch`).
    """
    from repro.core.batch import MAX_ATTEMPTS, run_batch

    if store is None and campaign.store_path is not None:
        with ResultStore(campaign.store_path) as own_store:
            return run_campaign(
                campaign,
                own_store,
                jobs=jobs,
                on_outcome=on_outcome,
                obs=obs,
            )
    start = time.perf_counter()
    with span(
        "campaign.run",
        campaign=campaign.name,
        trials=campaign.total_trials,
        jobs=jobs,
    ):
        planned = campaign_keys(campaign)
        total = len(planned)
        batch = run_batch(
            planned,
            jobs=jobs,
            store=store,
            obs=obs,
            on_outcome=on_outcome,
            attempt_span="campaign.attempt",
        )
        manifest = {
            "campaign": campaign.to_dict(),
            "total_trials": total,
            "cache_hits": batch.hits,
            "executed": batch.executed,
            "retried": batch.retried,
            "jobs": jobs,
        }
        if batch.failures:
            # Record the failure manifest *before* raising so
            # `campaign status --check` can attribute the gap to
            # specific cells (cleared automatically once a retry lands
            # the trials in the store).
            failures = [
                (planned[index], error)
                for index, error in batch.failures.items()
            ]
            manifest.update(
                wall_seconds=round(time.perf_counter() - start, 3),
                failures=[
                    {"label": t.label, "x": t.x, "seed": t.seed, "error": err}
                    for t, err in failures
                ],
            )
            if store is not None:
                store.record_campaign(campaign.name, manifest)
            raise CampaignError(
                f"{len(failures)} trial(s) failed after "
                f"{MAX_ATTEMPTS} attempt(s): "
                + "; ".join(
                    f"{t.label}/x={t.x:g}/seed={t.seed}: {err}"
                    for t, err in failures[:5]
                ),
                failures,
            )

        with span("campaign.fold", trials=total):
            series_list, point_results = _campaign_results(
                campaign, batch.trials
            )
        wall = time.perf_counter() - start
        manifest["wall_seconds"] = round(wall, 3)
        if store is not None:
            store.record_campaign(campaign.name, manifest)
        if obs is not None:
            obs.note_campaign(campaign.name, manifest)
        return CampaignResult(
            campaign=campaign,
            series=series_list,
            results=point_results,
            cache_hits=batch.hits,
            cache_misses=total - batch.hits,
            executed=batch.executed,
            retried=batch.retried,
            wall_seconds=wall,
        )


def fold_stored(
    campaign: Campaign, store: ResultStore, keys: Sequence[str]
) -> Tuple[List[Series], Dict[Tuple[str, float], ExperimentResult]]:
    """Fold a campaign purely from the store (no simulation).

    ``keys`` are the grid's content keys in plan order.  Raises
    :class:`CampaignError` naming the gap when they do not cover the
    grid or any of them is not banked — a fold must never silently
    average over a partial seed set.
    """
    if len(keys) != campaign.total_trials:
        raise CampaignError(
            f"campaign {campaign.name}: {len(keys)} keys for a grid of "
            f"{campaign.total_trials} trials",
            [],
        )
    trials = [store.get(key) for key in keys]
    missing = trials.count(None)
    if missing:
        raise CampaignError(
            f"campaign {campaign.name} is incomplete: "
            f"{missing}/{campaign.total_trials} trials missing "
            f"(run `repro-bgp campaign resume` first)",
            [],
        )
    return _campaign_results(campaign, trials)


def load_campaign_results(
    campaign: Campaign, store: ResultStore
) -> Tuple[List[Series], Dict[Tuple[str, float], ExperimentResult]]:
    """Plan the campaign's keys, then :func:`fold_stored` them."""
    return fold_stored(
        campaign, store, [trial.key for trial in campaign_keys(campaign)]
    )
