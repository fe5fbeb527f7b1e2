"""The four benchmark workloads.

Each workload is measured from outside the program: it calls public
functions of one or more layers, times the calls, and keeps the outputs
for the checks in ``run.py``.  The program only ever sees generated
inputs (topologies, specs, campaign documents) derived from ``--seed``
through :func:`repro.core.parallel.derive_trial_seeds`.

A workload has three hooks:

``setup(run)``
    everything before the first timed repeat (topology / campaign
    construction, pool prewarm, service boot) -> a state object;
``repeat(state, obs)``
    one timed repeat -> :class:`Repeat`.  ``obs`` is None on untraced
    repeats and an ``ObsSession(profile=True, spans=True)`` on the
    traced one; the ``span()`` calls below are no-ops unless the runner
    has installed a recorder;
``teardown(state)``
    release what ``setup`` opened.

The sizes are fixed (same on every commit) so every count repeats
exactly; ``--seconds`` only picks how many repeats are timed.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.mrai import ConstantMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, TrialResult, run_experiment
from repro.core.parallel import (
    derive_trial_seeds,
    get_worker_pool,
    pool_stats,
    shutdown_worker_pool,
)
from repro.obs.session import ObsSession
from repro.obs.spans import span
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    plan_submission,
    ticket_results,
    ticket_status,
)
from repro.store import (
    Campaign,
    ResultStore,
    load_campaign_results,
    run_campaign,
)
from repro.topology.graph import Topology
from repro.topology.skewed import skewed_topology

#: The paper's dynamic-MRAI ladder (Sec 5.1), used by both the serial
#: batched workload and the campaign grid.
DYNAMIC_LEVELS = (0.5, 1.25, 2.25)

#: Campaign grid shared by ``campaign_grid`` and ``service_loop``:
#: 3 schemes x 3 failure fractions x the workload's seeds.
GRID_SCHEMES: Dict[str, Dict[str, Any]] = {
    "fifo-0.5": {"mrai": 0.5},
    "dynamic": {"mrai_scheme": "dynamic", "levels": list(DYNAMIC_LEVELS)},
    "batching": {"mrai": 0.5, "queue": "dest_batch"},
}
GRID_FRACTIONS = [0.05, 0.1, 0.2]


@dataclass(frozen=True)
class RunConfig:
    """What one benchmark process was asked to do."""

    seed: int
    smoke: bool
    #: Target length of the timed region; picks the repeat count.
    seconds: float
    #: Scratch directory of this process (removed when it exits).
    tmp: Path

    def size(self, full_and_smoke: Tuple[int, int]) -> int:
        return full_and_smoke[1] if self.smoke else full_and_smoke[0]


@dataclass
class Repeat:
    """What one repeat measured, plus the outputs the checks need."""

    #: Timed region, host seconds.
    wall_s: float
    #: Host seconds in which ``trials`` were simulated (the denominator
    #: of events_per_s / trials_per_s); equals ``wall_s`` on the serial
    #: workloads, the cold pass / phase A elsewhere.
    cold_wall_s: float
    #: Every simulated trial of the repeat, in fold order.
    trials: List[TrialResult]
    #: User-visible metrics only this workload has (one value each).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values the workload itself observed (counters read
    #: from public telemetry, direct-call probes on live objects).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Operations beyond the trials: campaign passes, HTTP requests.
    operations: int = 0
    #: One line per failed operation or failed output check.
    failures: List[str] = field(default_factory=list)


@dataclass
class ProbeInputs:
    """The workload's own inputs, handed to the per-layer probes."""

    topology_factory: Callable[[int], Topology]
    seed: int
    topology: Topology
    spec: ExperimentSpec
    scheme: Dict[str, Any]
    topology_block: Dict[str, Any]


def median_seconds(fn: Callable[[], Any], rounds: int) -> float:
    """Median host seconds of one ``fn()`` over ``rounds`` calls."""
    walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def repeats_for(seconds: float, nominal_seconds: float) -> int:
    """Timed repeats of fixed size that fill ``--seconds`` (at least 2)."""
    return max(2, round(seconds / nominal_seconds))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def grid_document(name: str, nodes: int, seeds: Sequence[int]) -> Dict[str, Any]:
    return {
        "name": name,
        "topology": {"kind": "skewed", "nodes": nodes, "distribution": "70-30"},
        "schemes": {k: dict(v) for k, v in GRID_SCHEMES.items()},
        "axis": {"name": "failure_fraction", "values": list(GRID_FRACTIONS)},
        "seeds": list(seeds),
    }


def fold_signature(series_list) -> List[Any]:
    """What "cold fold == warm fold bitwise" compares."""
    return [
        (
            series.label,
            [
                (p.x, p.result.mean_delay, p.result.mean_messages, p.result.trials)
                for p in series.points
            ],
        )
        for series in series_list
    ]


def folded_trials(campaign: Campaign, results) -> List[TrialResult]:
    """Trials of a folded campaign in (scheme, x, seed) order."""
    return [
        trial
        for label in campaign.schemes
        for x in campaign.values
        for trial in results[(label, x)].trials
    ]


# ---------------------------------------------------------------------------
# fifo_storm / batch_dynamic: serial run_experiment on prebuilt topologies
# ---------------------------------------------------------------------------
@dataclass
class SerialState:
    nodes: int
    seeds: List[int]
    topologies: List[Topology]


class SerialWorkload:
    """``run_experiment`` in a loop: repro.bgp + repro.sim and nothing else."""

    warmup = True

    def __init__(
        self,
        name: str,
        why: str,
        spec: ExperimentSpec,
        nodes: Tuple[int, int],
        trials: Tuple[int, int],
        nominal_seconds: float,
    ) -> None:
        self.name = name
        self.why = why
        self.spec = spec
        #: (full, smoke) sizes.
        self.nodes = nodes
        self.trials = trials
        #: Host seconds of one repeat on the baseline host.
        self.nominal_seconds = nominal_seconds

    def repeats_for(self, seconds: float) -> int:
        return repeats_for(seconds, self.nominal_seconds)

    def setup(self, run: RunConfig) -> SerialState:
        seeds = derive_trial_seeds(run.seed, run.size(self.trials))
        nodes = run.size(self.nodes)
        return SerialState(
            nodes=nodes,
            seeds=seeds,
            topologies=[skewed_topology(nodes, seed=s) for s in seeds],
        )

    def repeat(self, state: SerialState, obs: Optional[ObsSession]) -> Repeat:
        trials = []
        start = time.perf_counter()
        for seed, topology in zip(state.seeds, state.topologies):
            with span(f"bench.{self.name}.run_experiment", seed=seed):
                trials.append(
                    run_experiment(topology, self.spec, seed=seed, obs=obs)
                )
        wall = time.perf_counter() - start
        return Repeat(wall_s=wall, cold_wall_s=wall, trials=trials)

    def teardown(self, state: SerialState) -> None:
        pass

    def probe_inputs(self, state: SerialState) -> ProbeInputs:
        nodes = state.nodes
        return ProbeInputs(
            topology_factory=lambda s: skewed_topology(nodes, seed=s),
            seed=state.seeds[0],
            topology=state.topologies[0],
            spec=self.spec,
            scheme=self.spec.to_dict(),
            topology_block={
                "kind": "skewed",
                "nodes": nodes,
                "distribution": "70-30",
            },
        )


# ---------------------------------------------------------------------------
# campaign_grid: run_campaign(jobs=2), one cold pass then warm re-runs
# ---------------------------------------------------------------------------
#: Both cores of the baseline host; the pool is prewarmed in set-up.
CAMPAIGN_JOBS = 2


@dataclass
class CampaignState:
    campaign: Campaign
    tmp: Path
    warm_passes: int
    repeats_done: int = 0


class CampaignWorkload:
    name = "campaign_grid"
    why = (
        "run_campaign(jobs=2) of a 36-trial grid into a fresh store, then 25 "
        "fully cached re-runs: pool, pickling and store.put cold; topology "
        "build, hashing and store.get warm"
    )
    warmup = True
    nominal_seconds = 6.5
    #: (full, smoke) sizes.
    nodes = (40, 16)
    seed_count = (4, 2)
    warm_passes = (25, 3)

    def repeats_for(self, seconds: float) -> int:
        return repeats_for(seconds, self.nominal_seconds)

    def setup(self, run: RunConfig) -> CampaignState:
        seeds = derive_trial_seeds(run.seed, run.size(self.seed_count))
        campaign = Campaign.from_dict(
            grid_document("bench-grid", run.size(self.nodes), seeds)
        )
        get_worker_pool().prewarm(CAMPAIGN_JOBS)
        return CampaignState(
            campaign=campaign,
            tmp=run.tmp,
            warm_passes=run.size(self.warm_passes),
        )

    def repeat(self, state: CampaignState, obs: Optional[ObsSession]) -> Repeat:
        campaign = state.campaign
        total = campaign.total_trials
        state.repeats_done += 1
        # Every repeat starts cold: a fresh store file, made untimed.
        store = ResultStore(state.tmp / f"campaign-{state.repeats_done}.db")
        pool_before = pool_stats()
        try:
            start = time.perf_counter()
            with span("bench.campaign_grid.cold_pass"):
                cold = run_campaign(campaign, store, jobs=CAMPAIGN_JOBS, obs=obs)
            cold_wall = time.perf_counter() - start
            warm_runs = []
            warm_walls = []
            for _ in range(state.warm_passes):
                t0 = time.perf_counter()
                with span("bench.campaign_grid.warm_pass"):
                    warm_runs.append(
                        run_campaign(
                            campaign, store, jobs=CAMPAIGN_JOBS, obs=obs
                        )
                    )
                warm_walls.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
            pool_after = pool_stats()
            db_bytes = store.stats()["db_bytes"]
            hits, misses = store.hits, store.misses
        finally:
            store.close()

        failures = []
        if cold.cache_hits != 0 or cold.executed != total:
            failures.append(
                f"cold pass: {cold.cache_hits} cached, {cold.executed} "
                f"executed (want 0 / {total})"
            )
        cold_fold = fold_signature(cold.series)
        for i, warm in enumerate(warm_runs):
            if warm.cache_hits != total or warm.executed != 0:
                failures.append(
                    f"warm pass {i}: {warm.cache_hits} cached, "
                    f"{warm.executed} executed (want {total} / 0)"
                )
            elif fold_signature(warm.series) != cold_fold:
                failures.append(f"warm pass {i}: fold differs from cold fold")

        trials = folded_trials(campaign, cold.results)
        busy = sum(t.warmup_wall + t.convergence_wall for t in trials)
        cache_hits = pool_after["cache_hits"] - pool_before["cache_hits"]
        cache_misses = pool_after["cache_misses"] - pool_before["cache_misses"]
        return Repeat(
            wall_s=wall,
            cold_wall_s=cold_wall,
            trials=trials,
            extra={
                "warm_trials_per_s": total / statistics.median(warm_walls),
            },
            layer={
                "core.pool_busy_s": busy,
                "core.pool_efficiency": busy / (CAMPAIGN_JOBS * cold_wall),
                "core.pool_chunks": pool_after["chunks"] - pool_before["chunks"],
                "core.pool_cache_hit_rate": cache_hits
                / max(1, cache_hits + cache_misses),
                "core.pool_spinup_s": pool_after["spinup_seconds"],
                "store.hits": hits,
                "store.misses": misses,
                "store.hit_ratio": hits / max(1, hits + misses),
                "store.db_bytes": db_bytes,
            },
            operations=1 + state.warm_passes,
            failures=failures,
        )

    def teardown(self, state: CampaignState) -> None:
        shutdown_worker_pool()

    def probe_inputs(self, state: CampaignState) -> ProbeInputs:
        return grid_probe_inputs(state.campaign)


def grid_probe_inputs(campaign: Campaign) -> ProbeInputs:
    factory = campaign.topology_factory()
    seed = campaign.seeds[0]
    label = next(iter(campaign.schemes))
    return ProbeInputs(
        topology_factory=factory,
        seed=seed,
        topology=factory(seed),
        spec=campaign.point_spec(label, campaign.values[0]),
        scheme=dict(campaign.schemes[label]),
        topology_block=dict(campaign.topology),
    )


# ---------------------------------------------------------------------------
# service_loop: in-process CampaignService driven over loopback HTTP
# ---------------------------------------------------------------------------
@dataclass
class ServiceState:
    service: CampaignService
    tmp: Path
    nodes: int
    seeds: List[int]
    iterations: int
    passes_done: int = 0


class _Guard:
    """Makes client calls; a ServiceError becomes a failed operation.

    ``failures`` is appended to from the client threads as well
    (``list.append`` is atomic under the GIL).
    """

    def __init__(self) -> None:
        self.failures: List[str] = []

    def __call__(self, fn: Callable[..., Any], *args: Any) -> Any:
        try:
            return fn(*args)
        except ServiceError as exc:
            self.failures.append(f"{fn.__name__}: {exc}")
            return None


class ServiceWorkload:
    name = "service_loop"
    why = (
        "closed-loop HTTP against an in-process CampaignService: 4 cold "
        "9-trial tickets, then 2 clients x {warm 36-trial submit, 10 status, "
        "result}: plan/fold per request, queue, store reads"
    )
    #: One pass; its metrics are percentiles over its own requests.
    warmup = False
    #: (full, smoke) sizes.
    nodes = (40, 16)
    seed_count = (4, 2)
    clients = 2
    statuses_per_iteration = 10
    #: Pause between /status polls of a cold ticket.
    poll_seconds = 0.1

    def repeats_for(self, seconds: float) -> int:
        return 1

    def setup(self, run: RunConfig) -> ServiceState:
        # Phase A (the 36 cold trials) is never cut; the warm iterations
        # per client follow --seconds: 50 at 30 s, the issue's size.
        iterations = 3 if run.smoke else max(10, round(50 * run.seconds / 30))
        return ServiceState(
            service=self._boot(run.tmp / "service-1.db"),
            tmp=run.tmp,
            nodes=run.size(self.nodes),
            seeds=derive_trial_seeds(run.seed, run.size(self.seed_count)),
            iterations=iterations,
        )

    @staticmethod
    def _boot(store_path: Path) -> CampaignService:
        service = CampaignService(
            ServiceConfig(
                store=str(store_path),
                port=0,
                jobs=1,
                poll_interval=0.05,
                quiet=True,
            )
        )
        service.start()
        return service

    def repeat(self, state: ServiceState, obs: Optional[ObsSession]) -> Repeat:
        state.passes_done += 1
        if state.passes_done > 1:
            # A pass needs an empty store: its tickets must be cold.
            state.service.shutdown()
            state.service = self._boot(
                state.tmp / f"service-{state.passes_done}.db"
            )
        service = state.service
        url = f"http://127.0.0.1:{service.port}"
        union_doc = grid_document("bench-grid", state.nodes, state.seeds)
        guard = _Guard()

        start = time.perf_counter()
        cold_tickets, busy_polls = self._phase_a(state, url, guard)
        phase_a = time.perf_counter() - start
        with span("bench.service_loop.phase_b"):
            per_client = self._phase_b(state, url, union_doc, guard)
        wall = time.perf_counter() - start
        phase_b = wall - phase_a

        def merged(kind: str) -> list:
            return [sample for mine in per_client for sample in mine[kind]]

        # Output checks, and the trials phase A simulated (from the store).
        backend = service.backend
        union = Campaign.from_dict(union_doc)
        series_list, point_results = load_campaign_results(union, backend)
        # /result lists its series in the order of the ticket's stored
        # campaign document, so the comparison is by label.
        expected_series = {
            series.label: {
                "label": series.label,
                "x_name": series.x_name,
                "points": [
                    {
                        "x": p.x,
                        "delay": p.delay,
                        "messages": p.messages,
                        "unreachable": p.unreachable,
                    }
                    for p in series.points
                ],
            }
            for series in series_list
        }
        failures = guard.failures
        bodies = merged("bodies")
        wrong = sum(
            1
            for body in bodies
            if body is None
            or {s["label"]: s for s in body["series"]} != expected_series
        )
        if wrong:
            failures.append(
                f"{wrong}/{len(bodies)} /result bodies differ from "
                f"load_campaign_results on the same store"
            )
        telemetry = service.executor.telemetry()
        total = union.total_trials
        if telemetry["executed"] != total or telemetry["failed_terminal"]:
            failures.append(
                f"executor ran {telemetry['executed']} trials, "
                f"{telemetry['failed_terminal']} failed terminally "
                f"(want {total} / 0)"
            )

        submit = [s * 1e3 for s in merged("submit")]
        status = [s * 1e3 for s in merged("status")]
        result = [s * 1e3 for s in merged("result")]
        phase_a_requests = 2 * len(state.seeds) + len(busy_polls)
        phase_b_requests = len(submit) + len(status) + len(result)
        extra = {
            "cold_ticket_s": statistics.median(cold_tickets),
            "warm_submit_ms_p50": percentile(submit, 50),
            "warm_submit_ms_p90": percentile(submit, 90),
            "status_ms_p50": percentile(status, 50),
            "status_ms_p99": percentile(status, 99),
            "result_ms_p50": percentile(result, 50),
            "result_ms_p90": percentile(result, 90),
            "requests_per_s": phase_b_requests / phase_b,
        }
        layer = {
            "service.executor_busy_s": telemetry["busy_seconds"],
            "service.cold_overhead_s": phase_a - telemetry["busy_seconds"],
            "service.batches": telemetry["batches"],
            "service.executed": telemetry["executed"],
            "service.retried": telemetry["retried"],
            "service.failed_terminal": telemetry["failed_terminal"],
            "service.status_busy_ms_p50": percentile(busy_polls, 50) * 1e3,
            "service.status_busy_ms_p90": percentile(busy_polls, 90) * 1e3,
            "store.hits": backend.hits,
            "store.misses": backend.misses,
            "store.hit_ratio": backend.hits
            / max(1, backend.hits + backend.misses),
            "store.db_bytes": backend.stats()["db_bytes"],
        }
        tickets = merged("tickets")
        if obs is not None and tickets:
            layer.update(self._direct_calls(union, backend, tickets[-1]))
            layer["service.http_overhead_ms"] = (
                extra["status_ms_p50"] - layer["service.ticket_status_ms"]
            )
        return Repeat(
            wall_s=wall,
            cold_wall_s=phase_a,
            trials=folded_trials(union, point_results),
            extra=extra,
            layer=layer,
            operations=phase_a_requests + phase_b_requests,
            failures=failures,
        )

    def _phase_a(
        self, state: ServiceState, url: str, guard: "_Guard"
    ) -> Tuple[List[float], List[float]]:
        """One client, cold tickets in sequence: submit, poll, fetch.

        Returns (seconds per ticket, seconds per /status poll).
        """
        client = ServiceClient(url)
        cold_tickets: List[float] = []
        polls: List[float] = []
        for i, seed in enumerate(state.seeds):
            doc = grid_document(f"bench-cold-{i}", state.nodes, [seed])
            t0 = time.perf_counter()
            with span("bench.service_loop.cold_ticket"):
                with span("bench.service_loop.submit"):
                    receipt = guard(client.submit, doc)
                if receipt is None:
                    continue
                while True:
                    t1 = time.perf_counter()
                    with span("bench.service_loop.status"):
                        status = guard(client.status, receipt["ticket"])
                    polls.append(time.perf_counter() - t1)
                    if status is None or status["state"] == "done":
                        break
                    if status["state"] == "failed":
                        guard.failures.append(f"cold ticket {i} failed: {status}")
                        break
                    with span("bench.service_loop.poll_sleep"):
                        time.sleep(self.poll_seconds)
                with span("bench.service_loop.result"):
                    guard(client.result, receipt["ticket"])
            cold_tickets.append(time.perf_counter() - t0)
        return cold_tickets, polls

    def _phase_b(
        self,
        state: ServiceState,
        url: str,
        union_doc: Dict[str, Any],
        guard: "_Guard",
    ) -> List[Dict[str, list]]:
        """Concurrent closed-loop clients; every submit is fully cached.

        Each thread appends to its own lists (latency samples in
        seconds, /result bodies, tickets); they are merged after join.
        """
        per_client: List[Dict[str, list]] = [
            {"submit": [], "status": [], "result": [], "bodies": [], "tickets": []}
            for _ in range(self.clients)
        ]

        def client_loop(mine: Dict[str, list]) -> None:
            http = ServiceClient(url)
            for _ in range(state.iterations):
                t0 = time.perf_counter()
                with span("bench.service_loop.warm_submit"):
                    receipt = guard(http.submit, union_doc)
                mine["submit"].append(time.perf_counter() - t0)
                if receipt is None:
                    continue
                if not receipt["complete"] or receipt["enqueued"] != 0:
                    guard.failures.append(
                        f"warm submit not served from cache: "
                        f"{receipt['cached']}/{receipt['total']} cached, "
                        f"{receipt['enqueued']} enqueued"
                    )
                for _ in range(self.statuses_per_iteration):
                    t0 = time.perf_counter()
                    with span("bench.service_loop.warm_status"):
                        guard(http.status, receipt["ticket"])
                    mine["status"].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                with span("bench.service_loop.warm_result"):
                    mine["bodies"].append(guard(http.result, receipt["ticket"]))
                mine["result"].append(time.perf_counter() - t0)
                mine["tickets"].append(receipt["ticket"])

        threads = [
            threading.Thread(
                target=client_loop, args=(mine,), name=f"bench-client-{i}"
            )
            for i, mine in enumerate(per_client)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return per_client

    @staticmethod
    def _direct_calls(
        union: Campaign, backend: Any, ticket: str
    ) -> Dict[str, float]:
        """The three service functions without HTTP, on the warm store."""

        with span("bench.service_loop.direct_calls"):
            return {
                "service.plan_submission_ms": 1e3
                * median_seconds(lambda: plan_submission(union, backend), 5),
                "service.ticket_status_ms": 1e3
                * median_seconds(lambda: ticket_status(ticket, backend), 20),
                "service.ticket_results_ms": 1e3
                * median_seconds(lambda: ticket_results(ticket, backend), 5),
            }

    def teardown(self, state: ServiceState) -> None:
        state.service.shutdown()

    def probe_inputs(self, state: ServiceState) -> ProbeInputs:
        return grid_probe_inputs(
            Campaign.from_dict(
                grid_document("bench-grid", state.nodes, state.seeds)
            )
        )


WORKLOADS = {
    w.name: w
    for w in (
        SerialWorkload(
            "fifo_storm",
            "serial run_experiment, 60 nodes, ConstantMRAI(0.5) + FIFO, 20% "
            "failure: many cheap events, so speaker, timers and the event "
            "heap do all the work (paper Fig 1-2 baseline)",
            ExperimentSpec(
                mrai=ConstantMRAI(0.5),
                queue_discipline="fifo",
                failure_fraction=0.2,
            ),
            nodes=(60, 20),
            trials=(4, 1),
            nominal_seconds=5.0,
        ),
        SerialWorkload(
            "batch_dynamic",
            "serial run_experiment, 120 nodes, DynamicMRAI + dest_batch "
            "queue, 20% failure: the same BGP layer through per-destination "
            "queues, stale deletion and the MRAI controller (paper Fig 13)",
            ExperimentSpec(
                mrai=DynamicMRAI(levels=DYNAMIC_LEVELS),
                queue_discipline="dest_batch",
                failure_fraction=0.2,
            ),
            nodes=(120, 30),
            trials=(2, 1),
            nominal_seconds=6.5,
        ),
        CampaignWorkload(),
        ServiceWorkload(),
    )
}
