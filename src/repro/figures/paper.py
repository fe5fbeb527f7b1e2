"""The paper's 13 figures (and one data-plane companion) as declarations.

Each entry names its caption, the series columns it plots and the grids
of trials behind it, and decorates the function that turns the measured
series into the paper's claims; the docstring quotes the claim.  The
DSN 2006 paper has 13 figures and no tables.
"""

from __future__ import annotations

from repro.analysis.shapes import is_v_shaped, monotone_increasing, optimal_x
from repro.figures.common import (
    Check,
    check_le,
    check_ratio,
    figure,
    grid,
    scheme_set_grids,
)


@figure(
    "fig01",
    "Convergence delay vs failure size (70-30 topology)",
    ("delay",),
    scheme_set_grids("mrai_three"),
)
def fig01(profile, series):
    """Fig 1 — Convergence delay for different sized failures.

    Paper claim (Sec 4.1): with a low MRAI the delay is small for small
    failures but "increases sharply as the size of the failure goes up";
    with higher MRAIs the small-failure delay is larger but the growth is
    gentler.
    """
    low, __, high = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    low_growth = low.delays[-1] / low.delays[0]
    high_growth = high.delays[-1] / high.delays[0]
    return [
        check_le(
            "low MRAI gives the lowest delay for the smallest failure",
            low.delay_at(f_small),
            high.delay_at(f_small),
        ),
        check_le(
            "high MRAI gives the lowest delay for the largest failure",
            high.delay_at(f_large),
            low.delay_at(f_large),
        ),
        Check(
            "low-MRAI delay grows steeper with failure size than high-MRAI",
            low_growth > high_growth,
            f"growth x{low_growth:.2f} (low) vs x{high_growth:.2f} (high)",
        ),
        Check(
            "low-MRAI delay increases with failure size",
            monotone_increasing(low.delays, tolerance=0.35),
            f"delays {['%.1f' % d for d in low.delays]}",
            strict=False,
        ),
    ]


@figure(
    "fig02",
    "Update messages vs failure size (70-30 topology)",
    ("messages",),
    scheme_set_grids("mrai_three"),
)
def fig02(profile, series):
    """Fig 2 — Number of generated messages for different MRAI values.

    Paper claim (Sec 4.1): "For small failures, the number of messages is
    low and about the same for all the MRAI values.  The message count
    for MRAI=0.5 seconds shoots up as the size of the failure is
    increased"; the higher-MRAI counts grow more gradually.
    """
    low, __, high = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    small_ratio = (
        low.messages_at(f_small) / high.messages_at(f_small)
        if high.messages_at(f_small)
        else float("inf")
    )
    return [
        Check(
            "message counts are comparable across MRAIs for the smallest failure",
            small_ratio <= 2.5,
            f"low/high message ratio {small_ratio:.2f}",
        ),
        check_ratio(
            "low-MRAI message count shoots up for the largest failure",
            low.messages_at(f_large),
            high.messages_at(f_large),
            minimum=2.0,
        ),
        Check(
            "message trend mirrors the delay trend (low MRAI grows fastest)",
            low.messages_at(f_large) / low.messages_at(f_small)
            > high.messages_at(f_large) / high.messages_at(f_small),
            strict=False,
        ),
    ]


def _fig03_grids(name, profile):
    curves = {
        f"{fraction:.1%} failure": {"failure_fraction": fraction}
        for fraction in profile.fig3_fractions
    }
    return [grid(name, profile, curves, axis="mrai")]


@figure(
    "fig03",
    "Convergence delay vs MRAI for three failure sizes (70-30)",
    ("delay",),
    _fig03_grids,
)
def fig03(profile, series):
    """Fig 3 — Variation in convergence delay with MRAI.

    Paper claims (Sec 4.1):

    * delay vs MRAI is V-shaped (down to an optimum, then up) — the
      Griffin-Premore curve;
    * the optimal MRAI *increases with failure size* (~0.5 s at 1%,
      ~1.25 s at 5% on the paper's 120-node 70-30 topology), so "it is
      not possible to select a single ideal MRAI value for a network ...
      if we take multiple failures into account".
    """
    optima = [optimal_x(s.xs, s.delays) for s in series]
    return [
        Check(
            "optimal MRAI is non-decreasing in failure size",
            all(a <= b for a, b in zip(optima, optima[1:])),
            f"optima {optima}",
        ),
        Check(
            "optimal MRAI strictly grows from smallest to largest failure",
            optima[0] < optima[-1],
            f"{optima[0]:g} -> {optima[-1]:g}",
        ),
        Check(
            "largest-failure curve falls then rises (V shape)",
            is_v_shaped(series[-1].xs, series[-1].delays, tolerance=0.35),
            strict=False,
        ),
    ]


def _distribution_grids(*curves):
    """One delay-vs-MRAI grid at 5% failure per ``(label, named degree
    distribution)`` curve — each distribution is its own topology."""

    def grids(name, profile):
        return [
            grid(
                name,
                profile,
                {label: {"failure_fraction": 0.05}},
                axis="mrai",
                distribution=distribution,
            )
            for label, distribution in curves
        ]

    return grids


@figure(
    "fig04",
    "Delay vs MRAI at 5% failure for 50-50 / 70-30 / 85-15",
    ("delay",),
    _distribution_grids(
        ("50-50", "50-50"), ("70-30", "70-30"), ("85-15", "85-15")
    ),
)
def fig04(profile, series):
    """Fig 4 — Convergence delay for different degree distributions.

    Paper claim (Sec 4.1): at the same average degree (3.8), the optimal
    MRAI tracks the degree of the *high-degree nodes*: ~1.0 s for 50-50
    (highs 5-6), ~1.25 s for 70-30 (highs 8), ~2.25 s for 85-15 (highs
    14) — because the high-degree nodes receive the most messages and
    overload first.
    """
    optima = {s.label: optimal_x(s.xs, s.delays) for s in series}
    return [
        Check(
            "optimal MRAI grows with the degree of the high-degree nodes "
            "(50-50 <= 85-15)",
            optima["50-50"] <= optima["85-15"],
            f"optima {optima}",
        ),
        Check(
            "full ordering 50-50 <= 70-30 <= 85-15",
            optima["50-50"] <= optima["70-30"] <= optima["85-15"],
            f"optima {optima}",
            strict=False,
        ),
    ]


@figure(
    "fig05",
    "Delay vs MRAI at 5% failure: avg degree 3.8 vs 7.6 (50-50)",
    ("delay",),
    _distribution_grids(
        ("avg degree 3.8", "50-50"), ("avg degree 7.6", "50-50-dense")
    ),
)
def fig05(profile, series):
    """Fig 5 — Effect of average degree on convergence delay.

    Paper claim (Sec 4.1): comparing two 50-50 topologies, avg degree 3.8
    (highs 5-6) vs 7.6 (highs 13-14): "both the optimal MRAI and the
    convergence delay are greater for the topology with the higher
    degree" — the larger optimum because of the higher-degree highs
    (matching the 85-15 optimum, ~2 s), the larger delay because more
    alternate paths must be explored.
    """
    sparse, dense = series
    opt_sparse = optimal_x(sparse.xs, sparse.delays)
    opt_dense = optimal_x(dense.xs, dense.delays)
    return [
        Check(
            "higher average degree -> optimal MRAI at least as large",
            opt_dense >= opt_sparse,
            f"optima {opt_sparse:g} (3.8) vs {opt_dense:g} (7.6)",
        ),
        Check(
            "higher average degree -> higher delay at the optimum",
            min(dense.delays) >= min(sparse.delays),
            f"min delay {min(sparse.delays):.1f} vs {min(dense.delays):.1f}",
            strict=False,
        ),
    ]


@figure(
    "fig06",
    "Degree-dependent MRAI vs constants (70-30 topology)",
    ("delay",),
    scheme_set_grids("degree_mrai"),
)
def fig06(profile, series):
    """Fig 6 — Effect of degree-dependent MRAI.

    Paper claims (Sec 4.2): with low MRAI (0.5 s) at the 70% low-degree
    nodes and high MRAI (2.25 s) at the 30% high-degree nodes, the
    large-failure delay is "almost the same as that with a constant MRAI
    of 2.25 seconds ... but significantly lower for small failures".  The
    reversed assignment behaves like the bad constant-0.5 configuration
    for large failures — convergence is governed by the high-degree
    nodes.
    """
    const_low, const_high, good, reversed_ = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    return [
        check_le(
            "degree-dependent (low fast, high slow) tracks constant-high "
            "for the largest failure",
            good.delay_at(f_large),
            const_high.delay_at(f_large),
            slack=1.5,
        ),
        check_le(
            "degree-dependent beats constant-high for the smallest failure",
            good.delay_at(f_small),
            const_high.delay_at(f_small),
        ),
        check_le(
            "degree-dependent beats constant-low for the largest failure",
            good.delay_at(f_large),
            const_low.delay_at(f_large),
        ),
        check_ratio(
            "reversed assignment is bad for the largest failure "
            "(near constant-low)",
            reversed_.delay_at(f_large),
            const_high.delay_at(f_large),
            minimum=1.0,
            strict=False,
        ),
    ]


@figure(
    "fig07",
    "Dynamic MRAI vs constant MRAIs (70-30 topology)",
    ("delay",),
    scheme_set_grids("dynamic_vs_constant"),
)
def fig07(profile, series):
    """Fig 7 — Effect of dynamic MRAI.

    Paper claims (Sec 4.3): with levels {0.5, 1.25, 2.25}, upTh=0.65 s,
    downTh=0.05 s, the dynamic scheme's delay is at or below the
    constant-0.5 delay for small failures (some nodes overload even
    there), about the constant-1.25 delay at 5%, and for larger failures
    above constant-2.25 but well below constant-1.25 and constant-0.5 —
    i.e. near-optimal across the whole range.
    """
    const_low, const_mid, const_high, dynamic = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    return [
        check_le(
            "dynamic tracks the constant-low delay for the smallest failure",
            dynamic.delay_at(f_small),
            const_low.delay_at(f_small),
            slack=1.30,
        ),
        check_le(
            "dynamic beats constant-low for the largest failure",
            dynamic.delay_at(f_large),
            const_low.delay_at(f_large),
        ),
        check_le(
            "dynamic at or below the constant-mid delay for the largest failure",
            dynamic.delay_at(f_large),
            const_mid.delay_at(f_large),
            slack=1.10,
        ),
        check_le(
            "dynamic within 2x of the best constant at every failure size",
            max(
                dynamic.delay_at(f)
                / min(
                    const_low.delay_at(f),
                    const_mid.delay_at(f),
                    const_high.delay_at(f),
                )
                for f in profile.fractions
            ),
            2.0,
            strict=False,
        ),
    ]


@figure(
    "fig08",
    "Dynamic MRAI: sensitivity to upTh (downTh=0)",
    ("delay",),
    scheme_set_grids("dynamic_up_th"),
)
def fig08(profile, series):
    """Fig 8 — Effect of upTh on the dynamic scheme (downTh = 0).

    Paper claims (Sec 4.3): a low upTh behaves like a constant high MRAI
    (too many nodes step up): comparatively high delay for small
    failures, low for large ones.  Raising upTh lowers the small-failure
    delays and raises the large-failure ones; results are good over a
    *range* of values (0.65 vs 1.25 "doesn't have a big impact").
    """
    lowest, middle, highest = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    return [
        Check(
            "low upTh hurts the smallest failures (acts like constant-high)",
            lowest.delay_at(f_small) >= middle.delay_at(f_small) * 0.9,
            f"{lowest.delay_at(f_small):.1f} vs {middle.delay_at(f_small):.1f}",
            strict=False,
        ),
        Check(
            "low upTh helps the largest failures",
            lowest.delay_at(f_large) <= highest.delay_at(f_large) * 1.1,
            f"{lowest.delay_at(f_large):.1f} vs {highest.delay_at(f_large):.1f}",
            strict=False,
        ),
        Check(
            "results are robust over a range of upTh (0.65 vs 1.25 close)",
            middle.delay_at(f_large) <= highest.delay_at(f_large) * 1.75
            and highest.delay_at(f_large) <= middle.delay_at(f_large) * 1.75,
            f"{middle.delay_at(f_large):.1f} vs {highest.delay_at(f_large):.1f}",
            strict=False,
        ),
    ]


@figure(
    "fig09",
    "Dynamic MRAI: sensitivity to downTh (upTh=0.65)",
    ("delay",),
    scheme_set_grids("dynamic_down_th"),
)
def fig09(profile, series):
    """Fig 9 — Effect of downTh on the dynamic scheme (upTh = 0.65 s).

    Paper claim (Sec 4.3): "As we increase downTh, more nodes decrease
    their MRAI and the delays for larger failures are increased"; results
    are again similar over a range of values.
    """
    zero, paper_value, high = series
    f_large = profile.largest_fraction
    return [
        Check(
            "raising downTh does not help the largest failures",
            high.delay_at(f_large) >= zero.delay_at(f_large) * 0.75,
            f"downTh=0: {zero.delay_at(f_large):.1f}s, "
            f"downTh=0.3: {high.delay_at(f_large):.1f}s",
            strict=False,
        ),
        Check(
            "results are robust over a range of downTh (0 vs 0.05 close)",
            paper_value.delay_at(f_large) <= zero.delay_at(f_large) * 1.75
            and zero.delay_at(f_large) <= paper_value.delay_at(f_large) * 1.75,
            f"{zero.delay_at(f_large):.1f} vs {paper_value.delay_at(f_large):.1f}",
            strict=False,
        ),
    ]


@figure(
    "fig10",
    "Batching vs dynamic MRAI vs constants (70-30 topology)",
    ("delay",),
    scheme_set_grids("batching"),
)
def fig10(profile, series):
    """Fig 10 — Performance of the batching scheme (delay).

    Paper claims (Sec 4.4): with MRAI 0.5 s, batching "is able to reduce
    the convergence delay for larger failures significantly while keeping
    the delays low for small failures" — by a factor of 3 or more vs the
    plain constant-0.5 configuration — and beats the dynamic MRAI scheme;
    combining batching with dynamic MRAI reduces delays "even further".
    """
    const_low, const_high, dynamic, batching, combined = series
    f_small = profile.smallest_fraction
    f_large = profile.largest_fraction
    return [
        check_ratio(
            "batching cuts the largest-failure delay vs constant-low "
            "(paper: factor of 3 or more)",
            const_low.delay_at(f_large),
            batching.delay_at(f_large),
            minimum=2.0,
        ),
        check_le(
            "batching keeps the smallest-failure delay low "
            "(near constant-low)",
            batching.delay_at(f_small),
            const_low.delay_at(f_small),
            slack=1.30,
        ),
        check_le(
            "batching at or below the dynamic scheme for the largest failure",
            batching.delay_at(f_large),
            dynamic.delay_at(f_large),
            slack=1.15,
            strict=False,
        ),
        check_le(
            "batch+dynamic is competitive with the best scheme at the "
            "largest failure",
            combined.delay_at(f_large),
            min(batching.delay_at(f_large), dynamic.delay_at(f_large)),
            slack=1.40,
            strict=False,
        ),
    ]


@figure(
    "fig11",
    "Update messages: batching vs dynamic vs constants",
    ("messages",),
    scheme_set_grids("batching"),
)
def fig11(profile, series):
    """Fig 11 — Number of messages generated by the batching scheme.

    Paper claims (Sec 4.4): the batching scheme's primary aim is to
    reduce the updates generated by overloaded nodes; its message count
    "is much less than that with MRAI=0.5 seconds and is in the same
    range as the number of messages for MRAI=2.25 seconds".
    """
    const_low, const_high, dynamic, batching, combined = series
    f_large = profile.largest_fraction
    same_range_ratio = (
        batching.messages_at(f_large) / const_high.messages_at(f_large)
        if const_high.messages_at(f_large)
        else float("inf")
    )
    return [
        check_ratio(
            "batching sends far fewer messages than constant-low at the "
            "largest failure",
            const_low.messages_at(f_large),
            batching.messages_at(f_large),
            minimum=1.5,
        ),
        Check(
            "batching's message count is in the constant-high range",
            same_range_ratio <= 3.0,
            f"batching/constant-high ratio {same_range_ratio:.2f}",
            strict=False,
        ),
    ]


def _fig12_grids(name, profile):
    curves = {
        "FIFO": {"failure_fraction": 0.05},
        "batching": {"failure_fraction": 0.05, "queue": "dest_batch"},
    }
    return [grid(name, profile, curves, axis="mrai")]


@figure(
    "fig12",
    "Batching vs FIFO across MRAI values (5% failure, 70-30)",
    ("delay",),
    _fig12_grids,
)
def fig12(profile, series):
    """Fig 12 — Effect of batching with different MRAIs (5% failure).

    Paper claim (Sec 4.4): "the convergence delay decreases significantly
    with batching if the MRAI is less than the optimal value; however
    batching does not have much of an impact otherwise" — batching only
    helps when nodes are actually overloaded.
    """
    fifo, batched = series
    lowest = min(profile.mrai_grid)
    highest = max(profile.mrai_grid)
    high_ratio = (
        batched.delay_at(highest) / fifo.delay_at(highest)
        if fifo.delay_at(highest)
        else 1.0
    )
    return [
        check_ratio(
            "batching helps significantly below the optimal MRAI",
            fifo.delay_at(lowest),
            batched.delay_at(lowest),
            minimum=1.25,
        ),
        Check(
            "batching has little effect above the optimal MRAI",
            0.60 <= high_ratio <= 1.40,
            f"batched/FIFO delay ratio at MRAI={highest:g}: {high_ratio:.2f}",
            strict=False,
        ),
        Check(
            "batching's optimum is at or below the FIFO optimum",
            optimal_x(batched.xs, batched.delays)
            <= optimal_x(fifo.xs, fifo.delays),
            strict=False,
        ),
    ]


def _fig13_fractions(profile):
    # Failure sizes up to the profile maximum: the realistic topologies
    # only show overload once several ASes' worth of routers disappear.
    return (0.05, 0.10, profile.largest_fraction)


def _fig13_grids(name, profile):
    return [
        grid(
            name,
            profile,
            "realistic",
            values=_fig13_fractions(profile),
            kind="multirouter",
            nodes=profile.multirouter_ases,
        )
    ]


@figure(
    "fig13",
    "Batching & dynamic MRAI on multi-router / Internet-derived topologies",
    ("delay",),
    _fig13_grids,
)
def fig13(profile, series):
    """Fig 13 — Convergence delay on realistic topologies.

    Paper claim (Sec 4.4): on topologies with multiple routers per AS and
    an Internet-derived inter-AS degree distribution (max degree 40),
    batching and dynamic MRAI behave just like on the synthetic flat
    topologies: batching keeps delays low across the failure range,
    dynamic MRAI is near-optimal, and the constant-low configuration
    degrades for large failures.

    The paper found the optimal MRAI on these topologies was 0.5 s for
    small failures and 3.5 s for large (10%) ones, so the dynamic ladder
    here tops out at 3.5 s rather than 2.25 s.
    """
    const_low, const_high, dynamic, batching, combined = series
    f_small, __, f_large = _fig13_fractions(profile)
    return [
        check_le(
            "batching beats constant-low for the largest failure",
            batching.delay_at(f_large),
            const_low.delay_at(f_large),
        ),
        check_le(
            "batching keeps the smallest-failure delay near constant-low",
            batching.delay_at(f_small),
            # Small-failure delays here are a couple of seconds at most, so
            # allow one second of absolute slack on top of the 35%.
            const_low.delay_at(f_small) + 1.0,
            slack=1.35,
        ),
        check_le(
            "dynamic beats constant-low for the largest failure",
            dynamic.delay_at(f_large),
            const_low.delay_at(f_large),
            slack=1.05,
            strict=False,
        ),
        check_le(
            "constant-high beats constant-low for the largest failure "
            "(same trend as the flat topologies)",
            const_high.delay_at(f_large),
            const_low.delay_at(f_large),
            slack=1.05,
            strict=False,
        ),
    ]


@figure(
    "figdp01",
    "Data-plane unreachability vs failure size (dynamic vs constant MRAI)",
    ("unreachable", "delay"),
    scheme_set_grids("dynamic_vs_constant"),
)
def figdp01(profile, series):
    """Fig DP1 — Data-plane unreachability vs failure size (not in the
    paper).

    The paper argues that shrinking convergence delay shrinks the window
    in which the data plane is broken; this companion figure measures
    that window directly.  Every scheme from the dynamic-vs-constant
    comparison (Fig 7's set) runs with the data-plane monitor on — the
    "unreachable" column is what makes ``compute_figure`` turn it on —
    and schemes are compared on *unreachable node-seconds*: the time
    integral, over alive (source, destination) pairs, of packets being
    blackholed or caught in transient forwarding loops.

    Expected shape: a low constant MRAI converges slowly for large
    failures (path hunting), a high constant MRAI converges slowly for
    small ones (idle timer padding); either way the data plane stays
    broken for longer.  Dynamic MRAI tracks the better constant across
    the range, so its total unreachability over the sweep should undercut
    every constant.

    Monitors perturb nothing (the trajectory is bit-identical — see
    tests/test_obs_dataplane.py), so the delay/message numbers here match
    Fig 7's; over a shared store, Fig 7's banked trials lack the
    data-plane summary and are re-executed, not served.
    """
    constants, dynamic = series[:-1], series[-1]
    f_large = profile.largest_fraction
    checks = [
        check_le(
            f"dynamic total unreachability <= {constant.label} "
            f"over the sweep",
            sum(dynamic.unreachables),
            sum(constant.unreachables),
            slack=1.05,
        )
        for constant in constants
    ]
    checks.append(
        check_le(
            "dynamic beats the low constant MRAI on unreachability "
            "for the largest failure",
            dynamic.unreachable_at(f_large),
            constants[0].unreachable_at(f_large),
            slack=1.05,
            strict=False,
        )
    )
    return checks
