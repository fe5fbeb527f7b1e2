"""Routes and route comparison.

A :class:`Route` is a view of one Loc-RIB selection: the destination, the AS
path *as received* (i.e. not including the local AS), which peer advertised
it, and whether it was learned over eBGP.  Locally originated routes have an
empty path and ``peer is None``.  No RIB stores a ``Route``: both hold the
paths themselves in destination-indexed slots (:mod:`repro.bgp.rib`), a
view is built on demand for readers outside the hot path, and the decision
ranks its candidates by ``(rank, len(path), key_tail(peer, ebgp))``, the
order of a packed key.

The decision process follows the paper's configuration — "the path length
was the only criterion used for selecting the routes" — with deterministic
tie-breaks so simulations are exactly reproducible:

1. lower import-preference rank wins (always 0 unless a routing policy
   is configured; Gao-Rexford ranks customer < peer < provider);
2. shorter AS path wins;
3. locally originated beats learned;
4. eBGP-learned beats iBGP-learned (standard BGP, relevant only for the
   multi-router topologies);
5. lowest advertising peer id wins.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: Field widths of the packed preference key: AS-path length, and the
#: advertising peer id + 1 (0 = locally originated).  Both are far above
#: anything a simulated topology can reach; the rank sits on top, unbounded.
_LEN_BITS = 24
_PEER_BITS = 32
#: The key's *tail* is criteria 3-5 — local-before-learned,
#: eBGP-before-iBGP and the peer id — all constants of the advertising peer.
_TAIL_BITS = 2 + _PEER_BITS


def key_tail(peer: Optional[int], ebgp: bool) -> int:
    """Criteria 3-5 of the preference key, lower is better: a constant of
    the advertising peer (``None`` = locally originated)."""
    learned = peer is not None
    return (learned << 1 | (not ebgp)) << _PEER_BITS | (
        peer + 1 if learned else 0
    )


def pack_key(rank: int, length: int, tail: int) -> int:
    """The preference key of a route ranked ``rank`` with an AS path of
    ``length`` hops from a peer whose :func:`key_tail` is ``tail``.  Keys
    order exactly like the tuples ``(rank, length, tail)``."""
    return (rank << _LEN_BITS | length) << _TAIL_BITS | tail


class Route:
    """A view of the Loc-RIB selection for one destination."""

    __slots__ = ("dest", "path", "peer", "ebgp", "_key")

    def __init__(
        self,
        dest: int,
        path: Tuple[int, ...],
        peer: Optional[int],
        ebgp: bool = True,
        rank: int = 0,
    ) -> None:
        self.dest = dest
        self.path = path
        self.peer = peer
        self.ebgp = ebgp
        # Routes are immutable once built: pack the five criteria of the
        # module docstring, most significant first, into one int.
        self._key = pack_key(rank, len(path), key_tail(peer, ebgp))

    @property
    def is_local(self) -> bool:
        """True for a locally originated route."""
        return self.peer is None

    def preference_key(self) -> int:
        """Sort key: lower is better.  Total order over candidates.

        The lowest field (advertising peer id) makes the order strict
        over any candidate set — no two distinct candidates for the same
        destination compare equal — so the best route is independent of
        iteration order.
        """
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "local" if self.peer is None else f"peer={self.peer}"
        kind = "eBGP" if self.ebgp else "iBGP"
        return f"<Route dest={self.dest} path={self.path} {src} {kind}>"


def local_route(dest: int) -> Route:
    """The locally originated route for the node's own prefix."""
    return Route(dest=dest, path=(), peer=None, ebgp=True)
