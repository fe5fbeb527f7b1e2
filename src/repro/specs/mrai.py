"""The MRAI-scheme table: named, declarative policy builders.

Every way the repo can pick MRAI values — the paper's constants, the
degree-dependent and dynamic schemes, the failure-extent-adaptive scheme
and the theory-derived ladder — is one :class:`MRAIScheme` entry here.
A scheme dict like ``{"mrai_scheme": "dynamic", "levels": [0.5, 1.25]}``
is validated field by field at parse time (a malformed ``levels`` fails
here, not deep inside a controller mid-simulation) and built into the
corresponding :class:`~repro.bgp.mrai.MRAIPolicy`.

Schemes whose parameters depend on the topology (``adaptive`` without an
explicit ``total_destinations``, ``theory`` always) declare it via
``needs_topology``; campaigns resolve them against the seed[0] topology
so the resulting specs stay deterministic and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.bgp.mrai import ConstantMRAI, MRAIPolicy
from repro.core.adaptive import PAPER_CALIBRATION, AdaptiveExtentMRAI
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import (
    PAPER_DOWN_TH,
    PAPER_LEVELS,
    PAPER_UP_TH,
    DynamicMRAI,
)
from repro.specs.fields import integer, lookup, number

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.graph import Topology

#: Monitors the dynamic scheme's controllers implement.
_MONITORS = ("queue", "utilization", "msgcount")


# ---------------------------------------------------------------------------
# Per-field parsing helpers (the typo-rejecting error layer)
# ---------------------------------------------------------------------------
def _number(scheme: Dict[str, Any], key: str, default: float) -> float:
    return number(scheme.get(key, default), key)


def _levels(scheme: Dict[str, Any], key: str,
            default: Tuple[float, ...]) -> Tuple[float, ...]:
    raw = scheme.get(key, default)
    if isinstance(raw, (str, bytes)) or not hasattr(raw, "__iter__"):
        raise ValueError(
            f"{key} must be a non-empty ascending sequence of numbers, "
            f"got {raw!r}"
        )
    values = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(
                f"{key} must contain only numbers, got {item!r}"
            )
        values.append(float(item))
    if not values or values != sorted(values):
        raise ValueError(
            f"{key} must be a non-empty ascending sequence "
            f"(got {list(raw)!r})"
        )
    return tuple(values)


def _calibration(
    scheme: Dict[str, Any], key: str,
    default: Tuple[Tuple[float, float], ...],
) -> Tuple[Tuple[float, float], ...]:
    raw = scheme.get(key, default)
    try:
        table = tuple(
            (float(fraction), float(mrai)) for fraction, mrai in raw
        )
    except (TypeError, ValueError):
        raise ValueError(
            f"{key} must be a sequence of [fraction, mrai] pairs, "
            f"got {raw!r}"
        ) from None
    fractions = [fraction for fraction, __ in table]
    if not table or fractions != sorted(fractions) or fractions[0] != 0.0:
        raise ValueError(
            f"{key} must be ascending in fraction and start at 0.0 "
            f"(got {raw!r})"
        )
    return table


def _thresholds(scheme: Dict[str, Any]) -> Tuple[float, float]:
    up_th = _number(scheme, "up_th", PAPER_UP_TH)
    down_th = _number(scheme, "down_th", PAPER_DOWN_TH)
    if down_th > up_th:
        raise ValueError("down_th must not exceed up_th")
    return up_th, down_th


# ---------------------------------------------------------------------------
# Scheme entries
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MRAIScheme:
    """One MRAI scheme: its parameters, builder and inverse.

    ``parse`` validates/defaults the scheme-dict parameters (raising
    per-field :class:`ValueError`); ``build`` turns the parsed dict (and
    optionally the topology) into a policy; ``serialize`` is the inverse
    :func:`repro.specs.serialize.spec_to_dict` applies to policies of
    exactly ``policy_type``.  Schemes that can only be resolved against
    a topology return True from ``needs_topology``.
    """

    params: Tuple[str, ...]
    parse: Callable[[Dict[str, Any]], Dict[str, Any]]
    build: Callable[[Dict[str, Any], Optional["Topology"]], MRAIPolicy]
    policy_type: Optional[type] = None
    serialize: Optional[Callable[[MRAIPolicy], Dict[str, Any]]] = None
    needs_topology: Callable[[Dict[str, Any]], bool] = field(
        default=lambda parsed: False
    )


def scheme_entry(scheme: Dict[str, Any]) -> Tuple[str, MRAIScheme]:
    """A scheme dict's ``mrai_scheme`` name and its table entry."""
    kind = scheme.get("mrai_scheme", "constant")
    return kind, lookup(MRAI_SCHEMES, "mrai_scheme", kind)


def mrai_scheme_params() -> frozenset:
    """Every parameter name any scheme accepts."""
    return frozenset(
        param for entry in MRAI_SCHEMES.values() for param in entry.params
    )


def build_mrai(
    scheme: Dict[str, Any], topology: Optional["Topology"] = None
) -> MRAIPolicy:
    """Build the MRAI policy a scheme dict describes.

    Only reads the ``mrai_scheme`` key and that scheme's own parameters;
    key-set validation against the *whole* scheme vocabulary lives in
    :func:`repro.specs.serialize.build_spec`.
    """
    kind, entry = scheme_entry(scheme)
    parsed = entry.parse(scheme)
    if topology is None and entry.needs_topology(parsed):
        raise ValueError(
            f"mrai_scheme {kind!r} needs a topology to resolve; pass "
            f"topology=... (campaigns resolve against the first seed's "
            f"topology)"
        )
    return entry.build(parsed, topology)


def scheme_needs_topology(scheme: Dict[str, Any]) -> bool:
    """Whether building this scheme dict requires a topology."""
    _kind, entry = scheme_entry(scheme)
    return entry.needs_topology(entry.parse(scheme))


# ---------------------------------------------------------------------------
# The five schemes
# ---------------------------------------------------------------------------
def _parse_constant(scheme: Dict[str, Any]) -> Dict[str, Any]:
    mrai = _number(scheme, "mrai", 0.5)
    if mrai < 0:
        raise ValueError("mrai must be non-negative")
    return {"mrai": mrai}


def _parse_degree(scheme: Dict[str, Any]) -> Dict[str, Any]:
    low = _number(scheme, "mrai_low", 0.5)
    high = _number(scheme, "mrai_high", 2.25)
    if low < 0 or high < 0:
        raise ValueError("mrai_low/mrai_high must be non-negative")
    threshold = integer(scheme.get("degree_threshold", 4), "degree_threshold")
    if threshold < 1:
        raise ValueError("degree_threshold must be >= 1")
    return {"mrai_low": low, "mrai_high": high, "degree_threshold": threshold}


def _parse_dynamic(scheme: Dict[str, Any]) -> Dict[str, Any]:
    levels = _levels(scheme, "levels", PAPER_LEVELS)
    up_th, down_th = _thresholds(scheme)
    monitor = scheme.get("monitor", "queue")
    if monitor not in _MONITORS:
        raise ValueError(
            f"unknown monitor {monitor!r}; choose from {sorted(_MONITORS)}"
        )
    mean_service = _number(scheme, "mean_service", 0.0155)
    if monitor == "queue" and mean_service <= 0:
        raise ValueError("mean_service must be positive")
    threshold = scheme.get("high_degree_only_threshold")
    if threshold is not None:
        if isinstance(threshold, bool) or not isinstance(threshold, int):
            raise ValueError(
                f"high_degree_only_threshold must be an integer or null, "
                f"got {threshold!r}"
            )
        if threshold < 1:
            raise ValueError("high_degree_only_threshold must be >= 1")
    return {
        "levels": levels,
        "up_th": up_th,
        "down_th": down_th,
        "monitor": monitor,
        "mean_service": mean_service,
        "high_degree_only_threshold": threshold,
    }


def _parse_adaptive(scheme: Dict[str, Any]) -> Dict[str, Any]:
    calibration = _calibration(scheme, "calibration", PAPER_CALIBRATION)
    window = _number(scheme, "window", 5.0)
    if window <= 0:
        raise ValueError("window must be positive")
    total = scheme.get("total_destinations")
    if total is not None:
        total = integer(total, "total_destinations")
        if total < 1:
            raise ValueError("total_destinations must be positive")
    return {
        "calibration": calibration,
        "window": window,
        "total_destinations": total,
    }


def _build_adaptive(
    parsed: Dict[str, Any], topology: Optional["Topology"]
) -> MRAIPolicy:
    total = parsed["total_destinations"]
    if total is None:
        assert topology is not None  # guaranteed by build_mrai
        total = len(topology.as_numbers())
    return AdaptiveExtentMRAI(
        total_destinations=total,
        calibration=parsed["calibration"],
        window=parsed["window"],
    )


def _parse_theory(scheme: Dict[str, Any]) -> Dict[str, Any]:
    fractions = _levels(scheme, "fractions", (0.02, 0.05, 0.20))
    mean_service = _number(scheme, "mean_service", 0.0155)
    if mean_service <= 0:
        raise ValueError("mean_service must be positive")
    floor = _number(scheme, "floor", 0.25)
    if floor <= 0:
        raise ValueError("floor must be positive")
    up_th, down_th = _thresholds(scheme)
    return {
        "fractions": fractions,
        "mean_service": mean_service,
        "floor": floor,
        "up_th": up_th,
        "down_th": down_th,
    }


def _build_theory(
    parsed: Dict[str, Any], topology: Optional["Topology"]
) -> MRAIPolicy:
    from repro.core.theory import recommend_ladder

    assert topology is not None  # guaranteed by build_mrai
    return DynamicMRAI(
        levels=recommend_ladder(
            topology,
            fractions=parsed["fractions"],
            mean_service=parsed["mean_service"],
            floor=parsed["floor"],
        ),
        up_th=parsed["up_th"],
        down_th=parsed["down_th"],
    )


#: Every MRAI scheme a scheme dict's ``mrai_scheme`` can name.
MRAI_SCHEMES: Dict[str, MRAIScheme] = {
    "constant": MRAIScheme(
        params=("mrai",),
        parse=_parse_constant,
        build=lambda parsed, topology: ConstantMRAI(parsed["mrai"]),
        policy_type=ConstantMRAI,
        serialize=lambda policy: {
            "mrai_scheme": "constant",
            "mrai": policy.value,
        },
    ),
    "degree": MRAIScheme(
        params=("mrai_low", "mrai_high", "degree_threshold"),
        parse=_parse_degree,
        build=lambda parsed, topology: DegreeDependentMRAI(
            parsed["mrai_low"],
            parsed["mrai_high"],
            degree_threshold=parsed["degree_threshold"],
        ),
        policy_type=DegreeDependentMRAI,
        serialize=lambda policy: {
            "mrai_scheme": "degree",
            "mrai_low": policy.low_value,
            "mrai_high": policy.high_value,
            "degree_threshold": policy.degree_threshold,
        },
    ),
    "dynamic": MRAIScheme(
        params=(
            "levels",
            "up_th",
            "down_th",
            "monitor",
            "mean_service",
            "high_degree_only_threshold",
        ),
        parse=_parse_dynamic,
        build=lambda parsed, topology: DynamicMRAI(**parsed),
        policy_type=DynamicMRAI,
        serialize=lambda policy: {
            "mrai_scheme": "dynamic",
            "levels": list(policy.levels),
            "up_th": policy.up_th,
            "down_th": policy.down_th,
            "monitor": policy.monitor,
            "mean_service": policy.mean_service,
            "high_degree_only_threshold": policy.high_degree_only_threshold,
        },
    ),
    "adaptive": MRAIScheme(
        params=("calibration", "window", "total_destinations"),
        parse=_parse_adaptive,
        build=_build_adaptive,
        policy_type=AdaptiveExtentMRAI,
        serialize=lambda policy: {
            "mrai_scheme": "adaptive",
            "calibration": [list(pair) for pair in policy.calibration],
            "window": policy.window,
            "total_destinations": policy.total_destinations,
        },
        needs_topology=lambda parsed: parsed["total_destinations"] is None,
    ),
    # The theory scheme resolves to a DynamicMRAI over the recommended
    # ladder, so it serializes as "dynamic" (with the levels made
    # explicit) and has no policy_type of its own.
    "theory": MRAIScheme(
        params=("fractions", "mean_service", "floor", "up_th", "down_th"),
        parse=_parse_theory,
        build=_build_theory,
        needs_topology=lambda parsed: True,
    ),
}
