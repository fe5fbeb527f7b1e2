"""Network assembly: topology + config -> a running BGP system.

:class:`BGPNetwork` instantiates one speaker per router, wires eBGP sessions
along inter-AS links and an iBGP full mesh inside every multi-router AS,
originates one prefix per AS, and provides the run/failure/measurement
surface the experiment layer drives:

* ``start()`` + ``run_until_quiet()`` — initial convergence (warm-up);
* ``fail_nodes(...)`` — kill routers, tear down their sessions at T0;
* ``last_activity`` — timestamp of the most recent routing activity, which
  is what convergence delay is measured from;
* ``counters`` — network-wide message/route accounting.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.bgp.config import BGPConfig
from repro.bgp.messages import Update
from repro.bgp.speaker import BGPSpeaker
from repro.sim.engine import Simulator
from repro.sim.trace import Counter, Tracer
from repro.topology.graph import DEFAULT_LINK_DELAY, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.dataplane import DataPlaneMonitor
    from repro.obs.metrics import MetricsRegistry


class BGPNetwork:
    """A simulated network of BGP speakers over a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[BGPConfig] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.topology = topology
        self.config = config if config is not None else BGPConfig()
        self.sim = Simulator(seed=seed, tracer=tracer)
        #: Optional structured-metrics registry; when present speakers
        #: record counters/histograms into it.
        self.metrics = metrics
        self.counters = Counter()
        self.last_activity = 0.0
        #: Every AS originates one prefix, its AS number: per-destination
        #: RIB arrays are indexed ``0 .. prefix_count - 1``.  AS numbers
        #: must therefore be dense — ``0 .. n-1`` or ``1 .. n`` for n ASes —
        #: so the arrays grow with the network, not with its labels.
        asns = topology.as_numbers()
        if asns and (asns[0] < 0 or asns[-1] > len(asns)):
            raise ValueError(
                f"AS numbers {asns[0]} .. {asns[-1]} are not dense: "
                f"renumber the {len(asns)} ASes 0 .. {len(asns) - 1}"
            )
        self.prefix_count = asns[-1] + 1 if asns else 0
        self.speakers: Dict[int, BGPSpeaker] = {}
        self._failed: Set[int] = set()
        #: Optional data-plane impact monitor (None = off; the hot path
        #: pays one attribute read + None check per best-route change).
        self.dataplane: Optional["DataPlaneMonitor"] = None
        #: Next provenance uid for causal tracing; advances only while a
        #: real tracer is attached (see :meth:`next_uid`).
        self._next_uid = 0
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        topo = self.topology
        for node_id in topo.node_ids():
            router = topo.routers[node_id]
            degree = topo.degree(node_id)
            controller = self.config.mrai_policy.controller_for(
                node_id, degree
            )
            self.speakers[node_id] = BGPSpeaker(
                network=self,
                node_id=node_id,
                asn=router.asn,
                config=self.config,
                controller=controller,
            )
        # eBGP sessions along inter-AS links (and, in flat topologies,
        # every link is inter-AS).
        for link in topo.links:
            as_a = topo.as_of(link.a)
            as_b = topo.as_of(link.b)
            if link.kind == "inter_as" and as_a != as_b:
                self.speakers[link.a].add_peer(
                    link.b, as_b, link.delay, ebgp=True
                )
                self.speakers[link.b].add_peer(
                    link.a, as_a, link.delay, ebgp=True
                )
        # iBGP full mesh inside every multi-router AS.
        for asn in topo.as_numbers():
            members = topo.as_members(asn)
            if len(members) < 2:
                continue
            for a, b in itertools.combinations(members, 2):
                self.speakers[a].add_peer(b, asn, DEFAULT_LINK_DELAY, ebgp=False)
                self.speakers[b].add_peer(a, asn, DEFAULT_LINK_DELAY, ebgp=False)

    # ------------------------------------------------------------------
    # Message plane
    # ------------------------------------------------------------------
    def transmit(
        self, sender_id: int, receiver_id: int, msg: Update, delay: float
    ) -> None:
        """Put one update on the wire (called by speakers)."""
        self.counters["updates_sent"] += 1
        if msg.is_withdrawal:
            self.counters["withdrawals_sent"] += 1
        self.note_activity()
        self.sim.schedule(delay, self._deliver, receiver_id, msg)

    def _deliver(self, receiver_id: int, msg: Update) -> None:
        speaker = self.speakers[receiver_id]
        if not speaker.alive:
            self.counters["updates_lost"] += 1
            return
        speaker.receive(msg)

    def note_activity(self) -> None:
        """Record routing activity at the current simulation time."""
        if self.sim.now > self.last_activity:
            self.last_activity = self.sim.now

    def next_uid(self) -> int:
        """Allocate the next provenance uid (causal tracing only).

        Uids are network-global and monotonically increasing, shared
        between UPDATE messages and failure-injection events so a cause
        chain can mix both.
        """
        uid = self._next_uid
        self._next_uid = uid + 1
        return uid

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Originate every AS's prefix at every one of its routers."""
        for speaker in self.speakers.values():
            if speaker.alive:
                speaker.originate(speaker.asn)

    def run_until_quiet(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation to quiescence; returns the stop time."""
        return self.sim.run(until=max_time, max_events=max_events)

    def fail_nodes(
        self,
        node_ids: Iterable[int],
        detection_delay: float = 0.0,
        detection_jitter: float = 0.0,
    ) -> float:
        """Fail ``node_ids`` (and all their sessions) at the current time.

        By default surviving neighbors detect the dead sessions
        immediately — the paper's convergence clock starts at the failure
        instant.  ``detection_delay`` models hold-timer-based detection
        instead: each surviving neighbor notices after
        ``detection_delay + Uniform(0, detection_jitter)`` seconds (BGP
        speakers' hold timers are not synchronized).  Returns the failure
        time T0.
        """
        if detection_delay < 0 or detection_jitter < 0:
            raise ValueError("detection delay/jitter must be non-negative")
        t0 = self.sim.now
        failing = sorted(set(node_ids))
        failure_uid = -1
        if self.sim.tracer.enabled:
            # The failure itself is a provenance root: every teardown
            # update the survivors emit chains back to this uid.
            failure_uid = self.next_uid()
            self.sim.tracer.emit(
                t0,
                "causality",
                None,
                "failure",
                failure_uid,
                -1,
                None,
                None,
                tuple(failing),
            )
        failed_now = []
        for node_id in failing:
            speaker = self.speakers[node_id]
            if speaker.alive:
                speaker.fail()
                self._failed.add(node_id)
                failed_now.append(node_id)
        if self.dataplane is not None and failed_now:
            self.dataplane.on_nodes_failed(failed_now, t0)
        detect_rng = self.sim.rng.get("failure-detection")
        for node_id in failing:
            for peer_id in self.speakers[node_id].peers:
                survivor = self.speakers[peer_id]
                if not survivor.alive:
                    continue
                if detection_delay == 0.0 and detection_jitter == 0.0:
                    survivor.peer_down(node_id, failure_uid)
                else:
                    delay = detection_delay + detect_rng.uniform(
                        0.0, detection_jitter
                    )
                    self.sim.schedule(
                        delay, survivor.peer_down, node_id, failure_uid
                    )
        return t0

    def close(self) -> None:
        """Release the simulation so this network is freed by reference
        counting, not by a later pass of the cycle collector.

        Speakers, peer states, timers and queued events all
        point at one another and back at this object, so a finished
        network is otherwise cyclic garbage that overlaps the next
        trial's live one.  Stops every timer, resets the simulator
        (pending events dropped, clock rewound) and forgets the speakers;
        counters and ``last_activity`` stay readable.  Idempotent.
        """
        for speaker in self.speakers.values():
            speaker.fail()
        self.speakers = {}
        self.dataplane = None
        self.sim.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def failed_nodes(self) -> Set[int]:
        return set(self._failed)

    def alive_speakers(self) -> List[BGPSpeaker]:
        return [s for s in self.speakers.values() if s.alive]

    def alive_prefixes(self) -> Set[int]:
        """Prefixes originated by at least one surviving router."""
        return {s.asn for s in self.speakers.values() if s.alive}

    def is_quiescent(self) -> bool:
        """No pending events and no speaker holding queued work."""
        if self.sim.pending_events:
            return False
        return not any(s.has_pending_work() for s in self.alive_speakers())
