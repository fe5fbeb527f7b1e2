"""The parse-time checks every spec module shares.

:func:`lookup` resolves a name in one of the vocabulary tables
(``MRAI_SCHEMES``, ``POLICY_BLOCKS``, ``TOPOLOGY_KINDS``, ``SCHEME_SETS``,
``DISTRIBUTIONS`` and :data:`repro.bgp.queues.QUEUES`); the scalar
parsers check one field of a scheme dict or block.  All of them raise
:class:`ValueError` naming the offending field or name.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Tuple, TypeVar

T = TypeVar("T")


def lookup(table: Mapping[str, T], kind: str, name: Any) -> T:
    """``table[name]``, or ``unknown <kind> 'name'; choose from [...]``."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise ValueError(
            f"unknown {kind} {name!r}; choose from {sorted(table)}"
        ) from None


def number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    # JSON as Python reads it carries NaN and Infinity.
    if not -math.inf < value < math.inf:
        raise ValueError(f"{key} must be finite, got {value!r}")
    return float(value)


def integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def boolean(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def pair(value: Any, key: str) -> Tuple[float, float]:
    try:
        lo, hi = value
        return (float(lo), float(hi))
    except (TypeError, ValueError):
        raise ValueError(
            f"{key} must be a [min, max] pair of numbers, got {value!r}"
        ) from None
