"""Property-based tests for the extension modules (damping, adaptive
controller, theory heuristics)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.damping import DampingConfig, DampingState
from repro.core.adaptive import PAPER_CALIBRATION, FailureExtentController
from repro.core.theory import recommend_mrai
from repro.topology.skewed import skewed_topology


# ---------------------------------------------------------------------------
# Damping invariants
# ---------------------------------------------------------------------------
flap_sequences = st.lists(
    st.tuples(
        st.sampled_from(["withdraw", "readvertise"]),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    max_size=40,
)


@given(flap_sequences)
def test_damping_penalty_always_bounded_and_nonnegative(events):
    config = DampingConfig(half_life=5.0)
    state = DampingState(config)
    now = 0.0
    for kind, gap in events:
        now += gap
        if kind == "withdraw":
            state.record_withdrawal(now)
        else:
            state.record_readvertisement(now)
        assert 0.0 <= state.penalty <= config.max_penalty
        # Suppression implies the penalty once exceeded the cut threshold.
        if state.suppressed:
            assert state.penalty > config.reuse_threshold


@given(
    st.floats(min_value=1.0, max_value=11_999.0),
    st.floats(min_value=0.1, max_value=60.0),
)
def test_damping_decay_is_exponential(initial_penalty, half_life):
    config = DampingConfig(half_life=half_life)
    state = DampingState(config)
    state.penalty = initial_penalty
    state.last_update = 0.0
    assert state.current_penalty(half_life) == (
        __import__("pytest").approx(initial_penalty / 2.0, rel=1e-9)
    )
    # Monotone decay.
    assert state.current_penalty(1.0) >= state.current_penalty(2.0)


@given(st.floats(min_value=751.0, max_value=12_000.0))
def test_damping_reuse_delay_lands_exactly_on_threshold(penalty):
    config = DampingConfig(half_life=7.0)
    delay = config.reuse_delay(penalty)
    decayed = penalty * math.exp(-config.decay_rate * delay)
    assert abs(decayed - config.reuse_threshold) < 1e-6


# ---------------------------------------------------------------------------
# Adaptive controller invariants
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_adaptive_extent_bounded_and_value_in_calibration(events):
    ctl = FailureExtentController(
        PAPER_CALIBRATION, window=5.0, total_destinations=50
    )
    now = 0.0
    ladder = {mrai for __, mrai in PAPER_CALIBRATION}
    for dest, gap in events:
        now += gap
        ctl.on_destination_changed(dest, now)
        assert ctl.value() in ladder


# ---------------------------------------------------------------------------
# Theory heuristic monotonicity
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=0.01, max_value=0.2),
)
def test_recommended_mrai_monotone_in_failure_size(seed, f1, f2):
    topo = skewed_topology(30, seed=seed)
    lo, hi = sorted((f1, f2))
    assert recommend_mrai(topo, lo) <= recommend_mrai(topo, hi) + 1e-9
