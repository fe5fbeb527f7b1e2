"""AS paths, routes and route comparison.

An AS path is ``()`` (the empty path of a locally originated route) or a
*cell* ``(first_asn, tail, length)``: the first AS on the path, the rest
of the path as another cell (or ``()``), and the number of hops.  An
eBGP export prepends the exporter's AS by building one cell whose tail
is the very path the exporter selected (:func:`prepend`), so a path is a
chain of cells shared by every RIB that holds a suffix of it, and an
export costs one 3-tuple whatever the path length.  ``path[0]`` names the
first hop of a non-empty path; :func:`path_length`,
:func:`path_contains` and :func:`path_tuple` read the rest.  A cell is a
3-tuple, so ``len``, ``in``, iteration and ``set()`` on it are wrong:
everything outside :mod:`repro.bgp` sees the flat tuple
:func:`path_tuple` builds.

A :class:`Route` is a view of one Loc-RIB selection: the destination, the
AS path *as received* (i.e. not including the local AS) as a flat tuple,
which peer advertised it, and whether it was learned over eBGP.  Locally
originated routes have an empty path and ``peer is None``.  No RIB stores
a ``Route``: both hold the paths themselves in destination-indexed slots
(:mod:`repro.bgp.rib`), a view is built on demand for readers outside the
hot path, and the decision ranks its candidates by ``(rank, length,
key_tail(peer, ebgp))``, the order of a packed key.

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

from typing import Optional, Tuple, Union

#: An AS path: ``()`` or a cell ``(first_asn, tail, length)`` whose tail
#: is itself a path (see the module docstring).
Path = Union[Tuple[()], Tuple[int, "Path", int]]


def path_length(path: Path) -> int:
    """The number of AS hops on ``path``."""
    return path[2] if path else 0


def prepend(asn: int, path: Path) -> Path:
    """``path`` with ``asn`` in front: one new cell, the path shared."""
    return (asn, path, path_length(path) + 1)


def path_contains(path: Path, asn: int) -> bool:
    """Whether ``asn`` is on ``path`` (a walk of the chain)."""
    while path:
        if path[0] == asn:
            return True
        path = path[1]
    return False


def path_tuple(path: Path) -> Tuple[int, ...]:
    """``path`` as a flat tuple of AS numbers, first hop first."""
    hops = []
    while path:
        hops.append(path[0])
        path = path[1]
    return tuple(hops)

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
    """A view of the Loc-RIB selection for one destination; ``path`` is
    the flat tuple of AS numbers (:func:`path_tuple` of the stored
    path)."""

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
        self._key = pack_key(rank, len(self.path), key_tail(peer, ebgp))

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
