"""Curve-shape predicates.

The reproduction targets *shapes*, not absolute numbers (our substrate is a
simulator, not the authors' testbed): V-shaped delay-vs-MRAI curves and
optima that move right with failure size.  These helpers express those
shapes as assertions the benchmark suite can check.
"""

from __future__ import annotations

from typing import Sequence


def optimal_x(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The x at which y is minimal (first one on ties)."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    best = min(range(len(xs)), key=lambda i: (ys[i], xs[i]))
    return xs[best]


def is_v_shaped(
    xs: Sequence[float],
    ys: Sequence[float],
    tolerance: float = 0.10,
) -> bool:
    """Does the curve fall to an interiorish minimum and rise after it?

    ``tolerance`` forgives noise: a point may rise above the running
    minimum by up to ``tolerance`` fraction on the way down, and dip below
    the running maximum similarly on the way up.  A curve whose minimum is
    at either extreme endpoint still counts as V-shaped only if both arms
    exist (i.e. it does not — we require an interior minimum).
    """
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need at least 3 equal-length points")
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    sorted_ys = [ys[i] for i in order]
    min_index = min(range(len(sorted_ys)), key=lambda i: sorted_ys[i])
    if min_index == 0 or min_index == len(sorted_ys) - 1:
        return False
    # Descending arm: no point rises appreciably before the minimum.
    running = sorted_ys[0]
    for y in sorted_ys[1 : min_index + 1]:
        if y > running * (1 + tolerance):
            return False
        running = min(running, y)
    # Ascending arm: no point drops appreciably after the minimum.
    running = sorted_ys[min_index]
    for y in sorted_ys[min_index + 1 :]:
        if y < running * (1 - tolerance):
            return False
        running = max(running, y)
    return True


def monotone_increasing(
    ys: Sequence[float], tolerance: float = 0.10
) -> bool:
    """Approximately non-decreasing (each dip bounded by ``tolerance``)."""
    if not ys:
        raise ValueError("empty sequence")
    running = ys[0]
    for y in ys[1:]:
        if y < running * (1 - tolerance):
            return False
        running = max(running, y)
    return True

