"""Routes and route comparison.

A :class:`Route` is a candidate entry in a RIB: the destination, the AS path
*as received* (i.e. not including the local AS), which peer advertised it,
and whether it was learned over eBGP.  Locally originated routes have an
empty path and ``peer is None``.

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

from operator import attrgetter
from typing import Optional, Tuple

#: Field widths of the packed preference key: AS-path length, and the
#: advertising peer id + 1 (0 = locally originated).  Both are far above
#: anything a simulated topology can reach; the rank sits on top, unbounded.
_LEN_BITS = 24
_PEER_BITS = 32


class Route:
    """A single RIB entry for one destination."""

    __slots__ = ("dest", "path", "peer", "ebgp", "export", "_key")

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
        #: The eBGP export form ``(asn,) + path``, built by the owning
        #: speaker the first time it advertises this route as its best.
        #: A route sits in exactly one speaker's RIBs, so this one tuple
        #: is what every peer's UPDATE, the sender's Adj-RIB-Out and the
        #: receivers' Adj-RIB-In share — the hot equality checks
        #: (``export == last``, ``existing.path == msg.path``) hit
        #: CPython's identity fast path, and the path dies with the last
        #: RIB slot that holds it.
        self.export: Optional[Tuple[int, ...]] = None
        # Routes are immutable once built: pack the five criteria of the
        # module docstring, most significant first, into one int.
        learned = peer is not None
        self._key = (
            ((rank << _LEN_BITS | len(path)) << 2 | learned << 1 | (not ebgp))
            << _PEER_BITS
        ) | (peer + 1 if learned else 0)

    @property
    def is_local(self) -> bool:
        """True for a locally originated route."""
        return self.peer is None

    @property
    def path_length(self) -> int:
        return len(self.path)

    def preference_key(self) -> int:
        """Sort key: lower is better.  Total order over candidates.

        The lowest field (advertising peer id) makes the order strict
        over any candidate set — no two distinct candidates for the same
        destination compare equal — so the best route is independent of
        iteration order.
        """
        return self._key

    def better_than(self, other: Optional["Route"]) -> bool:
        """Strictly preferred over ``other`` (``None`` = no route)."""
        return other is None or self._key < other._key

    def same_selection(self, other: Optional["Route"]) -> bool:
        """Whether this and ``other`` denote the identical selection.

        Compares path, advertising peer and session type; used to decide
        whether a decision run actually changed the Loc-RIB.
        """
        if other is None:
            return False
        return (
            self.path == other.path
            and self.peer == other.peer
            and self.ebgp == other.ebgp
        )

    def contains_as(self, asn: int) -> bool:
        """AS-path loop check."""
        return asn in self.path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "local" if self.peer is None else f"peer={self.peer}"
        kind = "eBGP" if self.ebgp else "iBGP"
        return f"<Route dest={self.dest} path={self.path} {src} {kind}>"


#: :meth:`Route.preference_key` for ``min(routes, key=by_preference)``: the
#: scan then compares packed ints without a Python frame per candidate.
by_preference = attrgetter("_key")


def local_route(dest: int) -> Route:
    """The locally originated route for the node's own prefix."""
    return Route(dest=dest, path=(), peer=None, ebgp=True)
