"""BGP UPDATE messages.

Updates are modeled at per-destination granularity — one message announces
or withdraws exactly one destination — which matches SSFNet's accounting and
the way the paper counts "update messages".  An announcement carries the
sender's full AS path for the destination (a cell of
:mod:`repro.bgp.routes`, shared with the sender's RIBs); a withdrawal
carries ``path = None``.
"""

from __future__ import annotations

from typing import Optional

from repro.bgp.routes import Path


class Update:
    """One BGP UPDATE for one destination.

    Attributes
    ----------
    dest:
        Destination prefix identifier (the originating AS number).
    path:
        AS path as advertised by the sender (the sender's AS first for eBGP
        announcements), or ``None`` for a withdrawal.
    sender:
        Node id of the sending router.
    uid:
        Provenance identifier, unique and monotonically increasing per
        network, assigned only while causal tracing is enabled (on a
        :class:`TracedUpdate`); ``-1`` (untraced) otherwise.
    cause_uid:
        ``uid`` of the received update — or failure-injection event —
        whose processing produced this message; ``-1`` when untraced or
        when the message has no traced cause (e.g. warm-up origination).
    """

    __slots__ = ("dest", "path", "sender")

    #: Untraced messages carry no provenance: three slots, and these
    #: class-level answers.
    uid = -1
    cause_uid = -1

    def __init__(
        self, dest: int, path: Optional[Path], sender: int
    ) -> None:
        self.dest = dest
        self.path = path
        self.sender = sender

    @property
    def is_withdrawal(self) -> bool:
        return self.path is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "WITHDRAW" if self.is_withdrawal else f"PATH={self.path}"
        return f"<Update dest={self.dest} from={self.sender} {kind}>"


class TracedUpdate(Update):
    """An :class:`Update` sent while causal tracing is enabled: the same
    message plus its own ``uid`` and ``cause_uid`` slots."""

    __slots__ = ("uid", "cause_uid")

    def __init__(
        self,
        dest: int,
        path: Optional[Path],
        sender: int,
        uid: int,
        cause_uid: int,
    ) -> None:
        super().__init__(dest, path, sender)
        self.uid = uid
        self.cause_uid = cause_uid
