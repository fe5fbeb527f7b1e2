"""Named pseudo-random streams.

A simulation study needs *repeatable* randomness that is also *decoupled*:
changing how many random numbers the topology generator draws must not
perturb the jitter applied to MRAI timers three modules away.  SSFNet solves
this with per-entity RNGs; we do the same with named streams, each an
independent :class:`random.Random` seeded from the master seed and the stream
name via a stable hash.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


#: Bytes of the BLAKE2b key a master seed is written into.
_KEY_BYTES = 16
#: Every master seed is in ``[0, SEED_LIMIT)``: what both the key and the
#: result store's signed 64-bit ``trials.seed`` column hold.
SEED_LIMIT = 1 << 63
#: The reason an out-of-range seed is refused, wherever it is refused.
SEED_RANGE = "non-negative and below 2**63"


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from ``master_seed`` and ``name``.

    Uses BLAKE2b rather than ``hash()`` so the derivation is stable across
    processes and Python versions (``PYTHONHASHSEED`` does not affect it).
    A master seed outside ``[0, SEED_LIMIT)`` is a :class:`ValueError`.
    """
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"seed must be {SEED_RANGE}, got {master_seed}")
    digest = hashlib.blake2b(
        name.encode("utf-8"),
        key=master_seed.to_bytes(_KEY_BYTES, "little", signed=False),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


class RandomStreams:
    """A family of independent named random streams.

    >>> streams = RandomStreams(seed=42)
    >>> jitter = streams.get("mrai-jitter")
    >>> service = streams.get("processing-delay")
    >>> jitter is streams.get("mrai-jitter")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be {SEED_RANGE}, got {seed}")
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
