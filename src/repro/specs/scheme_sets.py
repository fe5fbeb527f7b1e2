"""Named figure/ablation scheme sets, declared as table data.

Every comparison the figure harness draws — "three constant MRAIs",
"batching vs dynamic vs constants", each ablation's scheme list — is a
:data:`SCHEME_SETS` entry: a function from a scale profile to
``(label, scheme-dict)`` pairs.  Figure declarations name a set as the
``schemes`` of a campaign (:func:`repro.figures.common.grid`) instead of
constructing :class:`ExperimentSpec` lists inline, so adding a scheme to
a comparison (or a whole new comparison) is a data change here.

Profiles are duck-typed: anything with the attributes a set reads
(``mrai_three``, ``dynamic_levels``, ...) works, keeping this module
independent of :mod:`repro.figures`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.specs.fields import lookup

#: One scheme set: profile -> ((label, scheme dict), ...).
SchemeSetFn = Callable[[Any], Tuple[Tuple[str, Dict[str, Any]], ...]]

#: The per-failure-size optima the paper reports for the Fig 13
#: multi-router topologies (the dynamic ladder tops out at 3.5 s there).
REALISTIC_LEVELS = (0.5, 1.25, 3.5)


def scheme_set(
    name: str, profile: Any
) -> Tuple[Tuple[str, Dict[str, Any]], ...]:
    """The declarative ``(label, scheme dict)`` pairs of a named set."""
    return lookup(SCHEME_SETS, "scheme set", name)(profile)


def _constant(mrai: float, **extra: Any) -> Dict[str, Any]:
    return {"mrai_scheme": "constant", "mrai": mrai, **extra}


def _dynamic(levels, **extra: Any) -> Dict[str, Any]:
    return {"mrai_scheme": "dynamic", "levels": list(levels), **extra}


# ---------------------------------------------------------------------------
# Figure scheme sets
# ---------------------------------------------------------------------------
def _mrai_three(profile):
    """Figs 1/2: the three headline constant MRAIs."""
    return tuple(
        (f"MRAI={value:g}s", _constant(value))
        for value in profile.mrai_three
    )


def _batching(profile):
    """Figs 10/11: constants vs dynamic vs batching vs both."""
    low, __, high = profile.mrai_three
    return (
        (f"MRAI={low:g}s", _constant(low)),
        (f"MRAI={high:g}s", _constant(high)),
        ("dynamic", _dynamic(profile.dynamic_levels)),
        ("batching", _constant(low, queue="dest_batch")),
        (
            "batch+dynamic",
            _dynamic(profile.dynamic_levels, queue="dest_batch"),
        ),
    )


def _degree_mrai(profile):
    """Fig 6: degree-dependent MRAI vs constants, plus the reversal."""
    low, __, high = profile.mrai_three
    return (
        (f"MRAI={low:g}s", _constant(low)),
        (f"MRAI={high:g}s", _constant(high)),
        (
            f"low {low:g}, high {high:g}",
            {"mrai_scheme": "degree", "mrai_low": low, "mrai_high": high},
        ),
        (
            f"low {high:g}, high {low:g}",
            {"mrai_scheme": "degree", "mrai_low": high, "mrai_high": low},
        ),
    )


def _dynamic_vs_constant(profile):
    """Fig 7: the dynamic scheme against the three constants."""
    return tuple(
        (f"MRAI={value:g}s", _constant(value))
        for value in profile.mrai_three
    ) + (("dynamic", _dynamic(profile.dynamic_levels)),)


def _dynamic_up_th(profile):
    """Fig 8: upTh sensitivity (downTh pinned to 0)."""
    return tuple(
        (
            f"upTh={up:g}s",
            _dynamic(profile.dynamic_levels, up_th=up, down_th=0.0),
        )
        for up in (0.05, 0.65, 1.25)
    )


def _dynamic_down_th(profile):
    """Fig 9: downTh sensitivity (upTh pinned to the paper's 0.65)."""
    return tuple(
        (
            f"downTh={down:g}s",
            _dynamic(profile.dynamic_levels, up_th=0.65, down_th=down),
        )
        for down in (0.0, 0.05, 0.30)
    )


def _realistic(profile):
    """Fig 13: the scheme set on multi-router topologies."""
    return (
        ("MRAI=0.5s", _constant(0.5)),
        ("MRAI=3.5s", _constant(3.5)),
        ("dynamic", _dynamic(REALISTIC_LEVELS)),
        ("batching", _constant(0.5, queue="dest_batch")),
        ("batch+dynamic", _dynamic(REALISTIC_LEVELS, queue="dest_batch")),
    )


# ---------------------------------------------------------------------------
# Ablation scheme sets
# ---------------------------------------------------------------------------
def _ab_per_dest_mrai(profile):
    low = profile.mrai_three[0]
    return (
        ("per-peer", _constant(low)),
        ("per-destination", _constant(low, per_destination_mrai=True)),
    )


def _ab_tcp_batch(profile):
    low = profile.mrai_three[0]
    return (
        ("FIFO", _constant(low)),
        ("tcp-batch", _constant(low, queue="tcp_batch")),
        ("dest-batch", _constant(low, queue="dest_batch")),
    )


def _ab_monitors(profile):
    levels = profile.dynamic_levels
    return (
        ("queue", _dynamic(levels)),
        (
            "utilization",
            _dynamic(levels, monitor="utilization", up_th=0.85, down_th=0.30),
        ),
        (
            "msgcount",
            _dynamic(levels, monitor="msgcount", up_th=40.0, down_th=5.0),
        ),
        ("static low", _constant(levels[0])),
    )


def _ab_high_degree_only(profile):
    levels = profile.dynamic_levels
    return (
        ("dynamic everywhere", _dynamic(levels)),
        (
            "dynamic at high degree only",
            _dynamic(levels, high_degree_only_threshold=4),
        ),
    )


def _ab_failure_geometry(profile):
    low = profile.mrai_three[0]
    return (
        ("geographic", _constant(low)),
        ("scattered", _constant(low, failure_kind="random")),
    )


def _ab_withdrawal_rl(profile):
    low = profile.mrai_three[0]
    return (
        ("immediate withdrawals", _constant(low)),
        ("rate-limited withdrawals",
         _constant(low, withdrawal_rate_limiting=True)),
    )


def _ab_processing(profile):
    low = profile.mrai_three[0]
    return (
        ("uniform(1,30)ms FIFO", _constant(low)),
        ("uniform(1,30)ms batching", _constant(low, queue="dest_batch")),
        (
            "zero cost FIFO",
            _constant(low, processing_delay_range=[0.0, 0.0]),
        ),
        (
            "zero cost batching",
            _constant(
                low, processing_delay_range=[0.0, 0.0], queue="dest_batch"
            ),
        ),
    )


def _ab_future_work(profile):
    """Sec-5 future-work schemes; adaptive/theory resolve per topology."""
    low = profile.mrai_three[0]
    return (
        (f"MRAI={low:g}s", _constant(low)),
        ("dynamic (paper)", _dynamic(profile.dynamic_levels)),
        ("batching (paper)", _constant(low, queue="dest_batch")),
        ("adaptive extent", {"mrai_scheme": "adaptive"}),
        ("withdrawal-first batch", _constant(low, queue="dest_batch_wf")),
        ("dynamic @ theory ladder", {"mrai_scheme": "theory"}),
    )


def _ab_detection_delay(profile):
    low = profile.mrai_three[0]
    return tuple(
        (
            f"hold={detection:g}s",
            _constant(
                low,
                detection_delay=detection,
                detection_jitter=detection * 0.25,
            ),
        )
        for detection in (0.0, 1.0, 3.0)
    )


def _ab_flap_damping(profile):
    low = profile.mrai_three[0]
    return (
        ("no damping", _constant(low)),
        ("flap damping", _constant(low, damping={"half_life": 4.0})),
        ("batching", _constant(low, queue="dest_batch")),
    )


def _ab_policy_routing(profile):
    low = profile.mrai_three[0]
    return (
        ("no policy (paper)", _constant(low)),
        (
            "Gao-Rexford",
            _constant(
                low, policy={"kind": "gao-rexford", "infer": "hierarchical"}
            ),
        ),
    )


#: Every scheme set a figure grid can name, by name.
SCHEME_SETS: Dict[str, SchemeSetFn] = {
    "mrai_three": _mrai_three,
    "batching": _batching,
    "degree_mrai": _degree_mrai,
    "dynamic_vs_constant": _dynamic_vs_constant,
    "dynamic_up_th": _dynamic_up_th,
    "dynamic_down_th": _dynamic_down_th,
    "realistic": _realistic,
    "ab_per_dest_mrai": _ab_per_dest_mrai,
    "ab_tcp_batch": _ab_tcp_batch,
    "ab_monitors": _ab_monitors,
    "ab_high_degree_only": _ab_high_degree_only,
    "ab_failure_geometry": _ab_failure_geometry,
    "ab_withdrawal_rl": _ab_withdrawal_rl,
    "ab_processing": _ab_processing,
    "ab_future_work": _ab_future_work,
    "ab_detection_delay": _ab_detection_delay,
    "ab_flap_damping": _ab_flap_damping,
    "ab_policy_routing": _ab_policy_routing,
}
