"""Per-node time-series probes — the signals behind Figs 7-12.

The paper's dynamic MRAI scheme is driven by *unfinished work* (input-queue
length x mean per-update processing delay); its batching scheme is credited
with suppressing *invalid routes*, transient routes through dead ASes.  Its
evaluation figures are time-resolved views of those signals.
:class:`NetworkProbe` samples a running
:class:`~repro.bgp.network.BGPNetwork` at a fixed simulated interval and
records, per alive node:

* unfinished work (seconds),
* input-queue depth (messages),
* the active MRAI ladder level and the MRAI value in force,
* Loc-RIB size (routes),

plus network-wide aggregates per sample (p50 / p95 / max of work and queue
depth, the invalid-route count, the MRAI ladder occupancy).  Sampling is
pure observation: the probe schedules its own events on the simulator
queue but never touches protocol state or random streams, so an
instrumented run takes the *identical* protocol trajectory as an
uninstrumented one with the same seed.

The probe detaches automatically at quiescence (otherwise its own events
would keep the simulation alive forever) and can be re-armed with another
:meth:`NetworkProbe.start` — the experiment layer does exactly that between
warm-up and failure injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.bgp.routes import path_tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.network import BGPNetwork


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(q * len(ordered) + 0.999999))
    return ordered[rank - 1]


def count_invalid_routes(network: "BGPNetwork") -> int:
    """Routes whose AS path traverses a dead AS (transient-state metric).

    Zero after convergence; positive snapshots *during* convergence are the
    "invalid routes" whose suppression the paper credits for the batching
    scheme's gains.
    """
    dead = {
        network.speakers[n].asn for n in network.failed_nodes
    } - network.alive_prefixes()
    if not dead:
        return 0
    invalid = 0
    for speaker in network.alive_speakers():
        for path in speaker.loc_rib.path:
            if path and not dead.isdisjoint(path_tuple(path)):
                invalid += 1
    return invalid


@dataclass(frozen=True)
class NodeSample:
    """One node's state at one sample instant."""

    time: float
    node: int
    queue_depth: int
    unfinished_work: float
    mrai_level: int
    mrai_value: float
    loc_rib_size: int


@dataclass(frozen=True)
class AggregateSample:
    """Network-wide roll-up of one sample instant."""

    time: float
    nodes: int
    busy_nodes: int
    total_queue_depth: int
    queue_p50: float
    queue_p95: float
    queue_max: float
    work_p50: float
    work_p95: float
    work_max: float
    loc_rib_total: int
    #: Loc-RIB routes whose AS path crosses a dead AS
    #: (:func:`count_invalid_routes`).
    invalid_routes: int
    #: Dynamic-MRAI ladder occupancy: level -> node count.
    mrai_levels: Dict[int, int]


@dataclass
class ProbeSamples:
    """One trial's probe samples, as plain picklable data.

    The one form probe output takes: a :class:`NetworkProbe` fills it
    while the trial runs, the trial's observation record carries it to
    the session (across the process boundary or not), and
    ``ObsSession.probes`` holds one per sampled trial.
    """

    node_samples: List[NodeSample] = field(default_factory=list)
    aggregates: List[AggregateSample] = field(default_factory=list)

    def node_series(self, node: int, field: str) -> List[float]:
        """One node's attribute over time, e.g. ``("unfinished_work")``."""
        return [
            getattr(s, field) for s in self.node_samples if s.node == node
        ]

    def aggregate_series(self, field: str) -> List[float]:
        """One aggregate attribute over time, e.g. ``("work_p95")``."""
        return [getattr(a, field) for a in self.aggregates]

    def peak(self, field: str = "work_max") -> float:
        series = self.aggregate_series(field)
        return max(series) if series else 0.0

    def __len__(self) -> int:
        return len(self.aggregates)


class NetworkProbe:
    """Periodic in-simulation sampler for a :class:`BGPNetwork`.

    Parameters
    ----------
    network:
        The network to observe.  The probe lives and dies with it; what
        outlives both is :attr:`samples`.
    interval:
        Sampling period in simulated seconds.
    """

    def __init__(self, network: "BGPNetwork", interval: float = 0.25) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.network = network
        self.interval = interval
        #: Everything sampled so far: the part of the probe that outlives
        #: the network (``node_samples`` / ``aggregates`` are its lists).
        self.samples = ProbeSamples()
        self.node_samples = self.samples.node_samples
        self.aggregates = self.samples.aggregates
        self._armed = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """(Re-)arm the probe: a snapshot now, then periodic samples.

        Idempotent while armed; restarts sampling after an automatic
        detach (see :meth:`_tick`).
        """
        if self._armed:
            return
        self._armed = True
        self._sample()
        self.network.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self._sample()
        net = self.network
        # Detach at quiescence: the probe's own events must not keep the
        # simulation alive once the protocol has gone silent.
        if net.sim.pending_events == 0 and net.is_quiescent():
            self._armed = False
            return
        net.sim.schedule(self.interval, self._tick)

    def _sample(self) -> None:
        net = self.network
        now = net.sim.now
        queue_depths: List[float] = []
        works: List[float] = []
        busy = 0
        rib_total = 0
        levels: Dict[int, int] = {}
        for speaker in net.alive_speakers():
            depth = speaker.queue_length
            work = speaker.unfinished_work()
            queue_depths.append(depth)
            works.append(work)
            rib_total += len(speaker.loc_rib)
            if speaker.busy:
                busy += 1
            level = getattr(speaker.controller, "level", 0)
            levels[level] = levels.get(level, 0) + 1
            self.node_samples.append(
                NodeSample(
                    time=now,
                    node=speaker.node_id,
                    queue_depth=depth,
                    unfinished_work=work,
                    mrai_level=level,
                    mrai_value=speaker.controller.value(),
                    loc_rib_size=len(speaker.loc_rib),
                )
            )
        self.aggregates.append(
            AggregateSample(
                time=now,
                nodes=len(queue_depths),
                busy_nodes=busy,
                total_queue_depth=int(sum(queue_depths)),
                queue_p50=percentile(queue_depths, 0.50),
                queue_p95=percentile(queue_depths, 0.95),
                queue_max=max(queue_depths) if queue_depths else 0.0,
                work_p50=percentile(works, 0.50),
                work_p95=percentile(works, 0.95),
                work_max=max(works) if works else 0.0,
                loc_rib_total=rib_total,
                invalid_routes=count_invalid_routes(net),
                mrai_levels=levels,
            )
        )
