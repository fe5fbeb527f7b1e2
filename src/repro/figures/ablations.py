"""Ablation experiments.

Beyond the 13 figures, the paper makes several side claims and design
choices in prose.  Each ablation here isolates one of them, declared the
same way as the figures of :mod:`repro.figures.paper`:

* ``ab_per_dest_mrai`` — per-peer vs per-destination MRAI timers (Sec 2:
  per-destination is the "straightforward" but unscalable design).
* ``ab_tcp_batch`` — the paper's per-destination batching vs the
  router-style fixed-size TCP-buffer batch (end of Sec 4.4: the latter's
  dedup probability "will progressively decrease" with failure size).
* ``ab_monitors`` — the three overload monitors for dynamic MRAI (Sec 4.3:
  queue-based works, utilization "promising", message-count "not very
  successful").
* ``ab_high_degree_only`` — dynamic MRAI at all nodes vs only at
  high-degree nodes (Sec 4.3: "effectively the same", because low-degree
  nodes never overload).
* ``ab_failure_geometry`` — geographically contiguous vs scattered random
  failures of the same size.
* ``ab_withdrawal_rl`` — RFC-default immediate withdrawals vs rate-limited
  withdrawals.
* ``ab_processing`` — the paper's uniform(1, 30) ms processing model vs no
  processing cost (Sec 5: without overload "the convergence delays will be
  unchanged" by the schemes).
"""

from __future__ import annotations

from repro.figures.common import (
    Check,
    check_le,
    check_ratio,
    figure,
    grid,
    scheme_set_grids,
)


@figure(
    "ab_per_dest_mrai",
    "Ablation: per-peer vs per-destination MRAI timers",
    ("delay", "messages"),
    scheme_set_grids("ab_per_dest_mrai"),
)
def ab_per_dest_mrai(profile, series):
    per_peer, per_dest = series
    f_large = profile.largest_fraction
    return [
        Check(
            "both timer granularities converge at every failure size",
            all(d > 0 for d in per_peer.delays + per_dest.delays),
        ),
        Check(
            "per-destination timers change behaviour under load "
            "(the designs are not equivalent)",
            per_dest.delay_at(f_large) != per_peer.delay_at(f_large),
            f"{per_dest.delay_at(f_large):.1f}s vs "
            f"{per_peer.delay_at(f_large):.1f}s",
            strict=False,
        ),
    ]


@figure(
    "ab_tcp_batch",
    "Ablation: FIFO vs TCP-buffer batching vs per-destination batching",
    ("delay",),
    scheme_set_grids("ab_tcp_batch"),
)
def ab_tcp_batch(profile, series):
    fifo, tcp, dest = series
    f_large = profile.largest_fraction
    return [
        check_le(
            "per-destination batching beats router-style TCP batching "
            "for the largest failure",
            dest.delay_at(f_large),
            tcp.delay_at(f_large),
            slack=1.05,
        ),
        check_ratio(
            "per-destination batching beats plain FIFO for the largest "
            "failure",
            fifo.delay_at(f_large),
            dest.delay_at(f_large),
            minimum=1.5,
        ),
        check_le(
            "TCP batching is no worse than FIFO",
            tcp.delay_at(f_large),
            fifo.delay_at(f_large),
            slack=1.15,
            strict=False,
        ),
    ]


@figure(
    "ab_monitors",
    "Ablation: dynamic-MRAI overload monitors (queue / utilization / msgcount)",
    ("delay",),
    scheme_set_grids("ab_monitors"),
)
def ab_monitors(profile, series):
    queue, util, msg, static_low = series
    f_large = profile.largest_fraction
    return [
        check_le(
            "queue-based dynamic MRAI beats the static low constant "
            "for the largest failure",
            queue.delay_at(f_large),
            static_low.delay_at(f_large),
        ),
        check_le(
            "utilization-based monitor also helps (paper: 'promising')",
            util.delay_at(f_large),
            static_low.delay_at(f_large),
            slack=1.05,
            strict=False,
        ),
    ]


@figure(
    "ab_high_degree_only",
    "Ablation: dynamic MRAI at all nodes vs high-degree nodes only",
    ("delay",),
    scheme_set_grids("ab_high_degree_only"),
)
def ab_high_degree_only(profile, series):
    everywhere, high_only = series
    f_large = profile.largest_fraction
    ratio = high_only.delay_at(f_large) / everywhere.delay_at(f_large)
    return [
        Check(
            "restricting the dynamic scheme to high-degree nodes is "
            "effectively the same (paper Sec 4.3)",
            0.5 <= ratio <= 2.0,
            f"largest-failure delay ratio {ratio:.2f}",
            strict=False,
        ),
    ]


@figure(
    "ab_failure_geometry",
    "Ablation: contiguous geographic vs scattered random failures",
    ("delay", "messages"),
    scheme_set_grids("ab_failure_geometry"),
)
def ab_failure_geometry(profile, series):
    return [
        Check(
            "both geometries converge and grow with failure size",
            all(d > 0 for s in series for d in s.delays),
        ),
    ]


@figure(
    "ab_withdrawal_rl",
    "Ablation: immediate (RFC default) vs rate-limited withdrawals",
    ("delay", "messages"),
    scheme_set_grids("ab_withdrawal_rl"),
)
def ab_withdrawal_rl(profile, series):
    immediate, limited = series
    return [
        Check(
            "rate-limiting withdrawals changes message counts",
            any(
                immediate.messages_at(f) != limited.messages_at(f)
                for f in profile.fractions
            ),
            strict=False,
        ),
    ]


@figure(
    "ab_processing",
    "Ablation: the processing-overhead model is what the schemes fix",
    ("delay",),
    scheme_set_grids("ab_processing"),
)
def ab_processing(profile, series):
    loaded_fifo, loaded_batch, free_fifo, free_batch = series
    f_large = profile.largest_fraction
    free_ratio = (
        free_batch.delay_at(f_large) / free_fifo.delay_at(f_large)
        if free_fifo.delay_at(f_large)
        else 1.0
    )
    return [
        check_ratio(
            "with processing overhead, batching helps at the largest failure",
            loaded_fifo.delay_at(f_large),
            loaded_batch.delay_at(f_large),
            minimum=1.5,
        ),
        Check(
            "without processing overhead, batching changes nothing "
            "(paper Sec 5)",
            0.8 <= free_ratio <= 1.2,
            f"zero-cost batch/FIFO delay ratio {free_ratio:.2f}",
        ),
        check_le(
            "overload, not propagation, dominates the loaded delay",
            free_fifo.delay_at(f_large),
            loaded_fifo.delay_at(f_large),
        ),
    ]


@figure(
    "ab_future_work",
    "Ablation: the paper's future-work schemes, implemented",
    ("delay", "messages"),
    scheme_set_grids("ab_future_work"),
)
def ab_future_work(profile, series):
    """The paper's Sec-5 future-work schemes, implemented and measured.

    * failure-extent-adaptive MRAI ("a scheme that can accurately and
      quickly set the MRAI consistent with the extent of failure");
    * withdrawal-first batching ("the batching scheme can be improved
      further to remove conflicting/superfluous updates");
    * the analytically derived MRAI ladder from repro.core.theory ("it is
      necessary to develop a suitable theory for choosing various
      parameters"), feeding the paper's own dynamic scheme.
    """
    const_low, dynamic, batching, adaptive, wf_batch, theory = series
    f_large = profile.largest_fraction
    return [
        check_le(
            "adaptive-extent MRAI beats the constant-low meltdown",
            adaptive.delay_at(f_large),
            const_low.delay_at(f_large),
        ),
        check_le(
            "adaptive-extent MRAI is competitive with the paper's dynamic "
            "scheme at the largest failure",
            adaptive.delay_at(f_large),
            dynamic.delay_at(f_large),
            slack=1.25,
            strict=False,
        ),
        check_le(
            "withdrawal-first batching stays in the batching class",
            wf_batch.delay_at(f_large),
            batching.delay_at(f_large),
            slack=1.5,
        ),
        check_le(
            "the analytic ladder needs no measured sweep yet performs "
            "like the hand-tuned one",
            theory.delay_at(f_large),
            dynamic.delay_at(f_large),
            slack=1.75,
            strict=False,
        ),
    ]


@figure(
    "ab_detection_delay",
    "Ablation: instantaneous vs hold-timer failure detection",
    ("delay",),
    scheme_set_grids("ab_detection_delay"),
)
def ab_detection_delay(profile, series):
    """Hold-timer failure detection vs the paper's instantaneous model.

    The paper starts its convergence clock at the failure instant with
    immediate session teardown.  Real BGP waits out the hold timer; this
    ablation shows the detection delay adds roughly additively and does
    not change which scheme wins.
    """
    instant, one_second, three_seconds = series
    f_small = profile.smallest_fraction
    return [
        check_le(
            "hold-timer detection adds roughly its own delay for small "
            "failures",
            three_seconds.delay_at(f_small),
            instant.delay_at(f_small) + 3.0 + 1.5,
        ),
        Check(
            "detection delay never speeds convergence up",
            all(
                three_seconds.delay_at(f) >= instant.delay_at(f) * 0.8
                for f in profile.fractions
            ),
            strict=False,
        ),
    ]


@figure(
    "ab_flap_damping",
    "Ablation: RFC-2439 flap damping vs the paper's schemes",
    ("delay", "messages"),
    scheme_set_grids("ab_flap_damping"),
)
def ab_flap_damping(profile, series):
    """RFC-2439 route flap damping vs the paper's schemes.

    Damping was the deployed answer to update storms in the paper's era.
    After a *single* large failure event, path exploration looks like
    flapping, so damping suppresses recovery routes.  That cuts update
    volume (and hence, in the overload regime, measured convergence time)
    — but at the price of temporarily blackholing suppressed routes until
    their penalties decay (Mao et al., SIGCOMM 2002).  The paper's
    batching scheme achieves a bigger delay reduction with no suppression
    at all, which is what the strict check pins down.  Damping half-life
    is scaled to the simulation's seconds-scale dynamics.
    """
    plain, damped, batching = series
    f_large = profile.largest_fraction
    return [
        check_le(
            "batching beats flap damping for large-scale failures "
            "(and without damping's suppression blackholes)",
            batching.delay_at(f_large),
            damped.delay_at(f_large),
        ),
        Check(
            "damping works by suppressing updates: fewer messages than "
            "plain BGP at the largest failure",
            damped.messages_at(f_large) < plain.messages_at(f_large),
            f"{damped.messages_at(f_large):.0f} vs "
            f"{plain.messages_at(f_large):.0f}",
            strict=False,
        ),
    ]


def _policy_routing_grids(name, profile):
    # The topology is pinned so the inferred relationships stay valid for
    # every trial.
    return [grid(name, profile, "ab_policy_routing", seed=profile.seeds[0])]


@figure(
    "ab_policy_routing",
    "Ablation: Gao-Rexford policies vs unrestricted shortest-path",
    ("delay", "messages"),
    _policy_routing_grids,
)
def ab_policy_routing(profile, series):
    """Policy routing vs the paper's "no policy restrictions" setting.

    The paper selects routes by path length alone.  Under Gao-Rexford
    commercial policies (customer > peer > provider, valley-free export)
    fewer alternate paths exist, so path exploration — the engine of the
    paper's convergence problem — has less to explore.  The topology is
    held fixed across trials so the inferred AS relationships stay
    consistent; relationships are inferred hierarchically, which keeps
    valley-free reachability complete and the comparison apples-to-apples.
    """
    unrestricted, policied = series
    f_large = profile.largest_fraction
    return [
        Check(
            "policies shrink the exploration space: fewer update messages "
            "at the largest failure",
            policied.messages_at(f_large) < unrestricted.messages_at(f_large),
            f"{policied.messages_at(f_large):.0f} vs "
            f"{unrestricted.messages_at(f_large):.0f}",
        ),
        check_le(
            "policied convergence is no slower than unrestricted at the "
            "largest failure",
            policied.delay_at(f_large),
            unrestricted.delay_at(f_large),
            slack=1.25,
            strict=False,
        ),
    ]
