"""Explicit BGP session management (OPEN / KEEPALIVE / hold timer).

The paper — like most SSFNet convergence studies — starts from established
sessions and detects failures instantaneously.  This module provides the
*explicit* session mode for experiments that need the full lifecycle:

* a simplified RFC-1771 FSM per session: IDLE -> OPEN_SENT ->
  OPEN_CONFIRM -> ESTABLISHED (the TCP connect dance is collapsed into
  the OPEN exchange; there is no transport model underneath, so CONNECT /
  ACTIVE add nothing);
* KEEPALIVEs every ``keepalive_time``, jittered per RFC 1771;
* a hold timer refreshed by any message from the peer; expiry tears the
  session down and notifies the speaker (``peer_down``) — so failure
  detection *emerges* from silence instead of being injected;
* on reaching ESTABLISHED, the speaker (re)advertises its full table to
  the peer, as a real session reset would.

Session messages are processed out-of-band (no service-time cost): they
are tiny compared to table transfers, and charging them to the update
processor would pollute the overload signal the paper's schemes monitor.

In explicit mode the event queue never drains (keepalives recur), so
convergence is detected by an *activity gap* instead of quiescence — see
:meth:`repro.bgp.network.BGPNetwork.run_until_converged`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.timers import Jitter, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bgp.speaker import BGPSpeaker

# FSM states.
IDLE = "idle"
OPEN_SENT = "open_sent"
OPEN_CONFIRM = "open_confirm"
ESTABLISHED = "established"

# Session message kinds.
OPEN = "open"
KEEPALIVE = "keepalive"
NOTIFICATION = "notification"


class SessionConfig:
    """Timing parameters for explicit sessions.

    RFC 1771 suggests hold 90 s / keepalive 30 s; the defaults here are
    scaled to simulation dynamics (hold 9 s / keepalive 3 s) while keeping
    the RFC's 3:1 ratio.
    """

    __slots__ = ("hold_time", "keepalive_time", "retry_time")

    def __init__(
        self,
        hold_time: float = 9.0,
        keepalive_time: float = 3.0,
        retry_time: float = 2.0,
    ) -> None:
        if hold_time <= 0 or keepalive_time <= 0 or retry_time <= 0:
            raise ValueError("session timers must be positive")
        if keepalive_time >= hold_time:
            raise ValueError("keepalive_time must be below hold_time")
        self.hold_time = hold_time
        self.keepalive_time = keepalive_time
        self.retry_time = retry_time


class SessionMessage:
    """An OPEN / KEEPALIVE / NOTIFICATION on the wire."""

    __slots__ = ("kind", "sender")

    def __init__(self, kind: str, sender: int) -> None:
        self.kind = kind
        self.sender = sender

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SessionMessage {self.kind} from={self.sender}>"


class Session:
    """FSM for one direction's view of a BGP session."""

    __slots__ = (
        "speaker",
        "peer_id",
        "config",
        "state",
        "hold_timer",
        "keepalive_timer",
        "retry_timer",
    )

    def __init__(
        self, speaker: "BGPSpeaker", peer_id: int, config: SessionConfig
    ) -> None:
        self.speaker = speaker
        self.peer_id = peer_id
        self.config = config
        self.state = IDLE
        sim = speaker.sim
        rng = sim.rng.get(f"session/{speaker.node_id}")
        self.hold_timer = Timer(
            sim, self._hold_expired, jitter=Jitter.none()
        )
        self.keepalive_timer = Timer(
            sim, self._keepalive_due, jitter=Jitter(), rng=rng
        )
        self.retry_timer = Timer(
            sim, self._retry, jitter=Jitter(), rng=rng
        )

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    def start(self) -> None:
        """Begin session establishment (IDLE -> OPEN_SENT)."""
        if self.state != IDLE:
            return
        self.state = OPEN_SENT
        self._send(OPEN)
        self.hold_timer.start(self.config.hold_time)

    def handle(self, msg: SessionMessage) -> None:
        """Process a session message from the peer."""
        if not self.speaker.alive:
            return
        if msg.kind == NOTIFICATION:
            self._drop("notification received")
            return
        if self.state == IDLE and msg.kind != OPEN:
            # A stray message from a previous incarnation of the session;
            # only an OPEN may (passively) restart the FSM.
            return
        # Any live message refreshes the hold timer.
        self.hold_timer.start(self.config.hold_time)
        if msg.kind == OPEN:
            if self.state == IDLE:
                # Passive open: answer with our own OPEN, then confirm.
                self.state = OPEN_SENT
                self._send(OPEN)
            if self.state == OPEN_SENT:
                self.state = OPEN_CONFIRM
                self._send(KEEPALIVE)
        elif msg.kind == KEEPALIVE:
            if self.state == OPEN_CONFIRM:
                self._establish()
            elif self.state == OPEN_SENT:
                # Peer confirmed before our OPEN arrived — benign race;
                # treat as confirm.
                self.state = OPEN_CONFIRM
                self._send(KEEPALIVE)

    # ------------------------------------------------------------------
    def _establish(self) -> None:
        self.state = ESTABLISHED
        self.keepalive_timer.start(self.config.keepalive_time)
        self.speaker.session_established(self.peer_id)

    def _keepalive_due(self) -> None:
        if self.state == ESTABLISHED and self.speaker.alive:
            self._send(KEEPALIVE)
            self.keepalive_timer.start(self.config.keepalive_time)

    def _hold_expired(self) -> None:
        self._drop("hold timer expired")

    def _drop(self, reason: str) -> None:
        was_established = self.state == ESTABLISHED
        self.state = IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        if was_established:
            self.speaker.network.counters["sessions_hold_expired"] += 1
            self.speaker.peer_down(self.peer_id)
        if self.speaker.alive:
            # Retry later: the peer may come back (or never — dead peers
            # simply leave us retrying IDLE->OPEN_SENT against silence,
            # which the hold timer times out again).
            self.retry_timer.start(self.config.retry_time)

    def _retry(self) -> None:
        if self.speaker.alive and self.state == IDLE:
            self.start()

    def _send(self, kind: str) -> None:
        self.speaker.send_session_message(self.peer_id, kind)

    def force_down(self) -> None:
        """Administratively drop the session without re-notifying the
        speaker (used when ``peer_down`` originated outside the FSM)."""
        self.state = IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        if self.speaker.alive:
            self.retry_timer.start(self.config.retry_time)

    def shutdown(self) -> None:
        """Stop all timers (the owning speaker failed)."""
        self.state = IDLE
        self.hold_timer.stop()
        self.keepalive_timer.stop()
        self.retry_timer.stop()

    def close(self) -> None:
        """Drop the (stopped) timers, whose callbacks point back here."""
        self.hold_timer = self.keepalive_timer = self.retry_timer = None
