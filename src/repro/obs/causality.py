"""Causal update tracing: who caused which UPDATE, and what it cost.

While a real :class:`~repro.sim.trace.Tracer` is attached, every UPDATE a
speaker puts on the wire carries a network-global monotonically increasing
``uid`` plus the ``cause_uid`` of the received update — or failure-injection
event — whose processing produced it (see :mod:`repro.bgp.messages` and
:meth:`repro.bgp.speaker.BGPSpeaker._send`).  Each send is also emitted as a
``causality`` trace record, and failure injections emit a root record of
their own, so a trace contains the full cause *forest* of a run:

    failure ──> withdrawal at survivor A ──> re-advertisement at B ──> ...

:class:`CausalGraph` rebuilds that forest from a record stream (a tracer's
records, or :func:`~repro.sim.trace.load_trace` of a JSONL trace) and
answers the questions the paper's figures cannot: how deep do cascades
run, which nodes amplify churn, and how many updates were wasted work
(superseded by a later update for the same (sender, peer, destination)
before convergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord

#: The causality-record kind that starts a cause chain.
ROOT_KIND = "failure"


@dataclass(frozen=True)
class CausalEvent:
    """One node of the cause forest: a sent UPDATE or a failure injection."""

    uid: int
    kind: str  # "send" or "failure"
    time: float
    node: Optional[int]  # sending router; None for failure injections
    cause_uid: int  # -1 = no traced cause (e.g. warm-up origination)
    dest: Optional[int]  # destination prefix ("send" only)
    peer: Optional[int]  # receiving router ("send" only)
    #: Advertised AS path (None = withdrawal) for sends; the failed node
    #: ids for failure roots.
    payload: Any = None

    @property
    def is_root_kind(self) -> bool:
        return self.kind == ROOT_KIND

    @property
    def is_withdrawal(self) -> bool:
        return self.kind == "send" and self.payload is None


class CausalGraph:
    """The cause forest of one traced run.

    Events are keyed by uid; each has at most one cause, so the structure
    is a forest whose roots are failure injections and cause-less sends
    (warm-up originations).  All derived statistics are computed lazily
    and cached.
    """

    def __init__(self, events: Sequence[CausalEvent]) -> None:
        self.events: Dict[int, CausalEvent] = {e.uid: e for e in events}
        self.children: Dict[int, List[int]] = {}
        for event in self.events.values():
            if event.cause_uid in self.events:
                self.children.setdefault(event.cause_uid, []).append(
                    event.uid
                )
        self._depths: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "CausalGraph":
        """Build from a trace stream, ignoring non-causality records."""
        events: List[CausalEvent] = []
        for record in records:
            if record.category != "causality":
                continue
            kind, uid, cause_uid, dest, peer, payload = record.detail
            events.append(
                CausalEvent(
                    uid=uid,
                    kind=kind,
                    time=record.time,
                    node=record.node,
                    cause_uid=cause_uid,
                    dest=dest,
                    peer=peer,
                    payload=payload,
                )
            )
        return cls(events)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def sends(self) -> List[CausalEvent]:
        return [e for e in self.events.values() if e.kind == "send"]

    @property
    def roots(self) -> List[CausalEvent]:
        """Events without a traced cause, failure injections first."""
        roots = [
            e
            for e in self.events.values()
            if e.cause_uid not in self.events
        ]
        return sorted(roots, key=lambda e: (not e.is_root_kind, e.uid))

    @property
    def failure_roots(self) -> List[CausalEvent]:
        return [e for e in self.roots if e.is_root_kind]

    def depths(self) -> Dict[int, int]:
        """Depth of every event, computed once in one pass in ascending
        uid order: a cause's uid is below its effect's (the ``causality``
        shape :func:`~repro.sim.trace.load_trace` checks), so a traced
        cause has its depth before any effect asks for it."""
        if self._depths is None:
            depths: Dict[int, int] = {}
            for uid in sorted(self.events):
                cause = self.events[uid].cause_uid
                depths[uid] = depths[cause] + 1 if cause in depths else 0
            self._depths = depths
        return self._depths

    def chain(self, uid: int) -> List[CausalEvent]:
        """The cause chain of ``uid``, root first; it ends because each
        step goes to a lower uid."""
        chain: List[CausalEvent] = []
        event = self.events.get(uid)
        while event is not None:
            chain.append(event)
            event = self.events.get(event.cause_uid)
        chain.reverse()
        return chain

    def longest_chains(self, k: int = 3) -> List[List[CausalEvent]]:
        """The ``k`` deepest cause chains, deepest first."""
        depths = self.depths()
        deepest = sorted(depths, key=lambda u: (-depths[u], u))[:k]
        return [self.chain(uid) for uid in deepest]

    def cascade_size(self, root_uid: int) -> int:
        """Number of descendant events of ``root_uid`` (excluding it)."""
        count = 0
        frontier = list(self.children.get(root_uid, ()))
        while frontier:
            uid = frontier.pop()
            count += 1
            frontier.extend(self.children.get(uid, ()))
        return count

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def depth_histogram(self) -> Dict[int, int]:
        """depth -> number of events at that depth."""
        histogram: Dict[int, int] = {}
        for depth in self.depths().values():
            histogram[depth] = histogram.get(depth, 0) + 1
        return dict(sorted(histogram.items()))

    def width_histogram(self) -> Dict[int, int]:
        """fan-out (direct children) -> number of events with that fan-out."""
        histogram: Dict[int, int] = {}
        for uid in self.events:
            width = len(self.children.get(uid, ()))
            histogram[width] = histogram.get(width, 0) + 1
        return dict(sorted(histogram.items()))

    def amplification(self) -> Dict[int, float]:
        """Per-router churn amplification.

        For each router, the number of updates it sent divided by the
        number of distinct traced causes those sends chain back to — how
        many messages one incoming event turns into at that node.
        Routers whose sends all lack a traced cause report their raw
        send count (pure sources).
        """
        sent: Dict[int, int] = {}
        causes: Dict[int, set] = {}
        for event in self.sends:
            assert event.node is not None
            sent[event.node] = sent.get(event.node, 0) + 1
            if event.cause_uid != -1:
                causes.setdefault(event.node, set()).add(event.cause_uid)
        return {
            node: count / max(1, len(causes.get(node, ())))
            for node, count in sent.items()
        }

    def top_amplifiers(self, k: int = 5) -> List[Tuple[int, float]]:
        """The ``k`` routers with the highest amplification factor."""
        factors = self.amplification()
        ranked = sorted(factors.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def wasted_updates(self) -> Dict[int, int]:
        """Per-router count of superseded (wasted) updates.

        A send is wasted when a later send for the same
        (sender, receiver, destination) triple exists in the trace: the
        earlier message's content never survived to convergence.  This
        is exactly the churn MRAI batching is meant to collapse.
        """
        last_uid: Dict[Tuple[int, int, int], int] = {}
        for event in sorted(self.sends, key=lambda e: (e.time, e.uid)):
            assert event.node is not None
            key = (event.node, event.peer, event.dest)
            last_uid[key] = event.uid
        wasted: Dict[int, int] = {}
        for event in self.sends:
            key = (event.node, event.peer, event.dest)
            if last_uid[key] != event.uid:
                wasted[event.node] = wasted.get(event.node, 0) + 1
        return wasted

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The JSON-ready headline statistics of the forest."""
        depths = self.depths()
        sends = self.sends
        wasted = self.wasted_updates()
        failure_roots = self.failure_roots
        return {
            "events": len(self.events),
            "sends": len(sends),
            "withdrawals": sum(1 for e in sends if e.is_withdrawal),
            "roots": len(self.roots),
            "failure_roots": [
                {
                    "uid": e.uid,
                    "kind": e.kind,
                    "time": e.time,
                    "scope": list(e.payload) if e.payload else [],
                    "cascade": self.cascade_size(e.uid),
                }
                for e in failure_roots
            ],
            "max_chain_depth": max(depths.values(), default=0),
            "depth_histogram": self.depth_histogram(),
            "width_histogram": self.width_histogram(),
            "wasted_updates": sum(wasted.values()),
            "top_amplifiers": [
                {"node": node, "factor": round(factor, 3)}
                for node, factor in self.top_amplifiers()
            ],
        }
