"""Unit tests for named random streams."""

import pytest

from repro.sim.rng import SEED_LIMIT, RandomStreams, derive_seed


def test_same_name_returns_same_stream():
    streams = RandomStreams(1)
    assert streams.get("a") is streams.get("a")


def test_different_names_are_independent():
    streams = RandomStreams(1)
    a = [streams.get("a").random() for _ in range(5)]
    b = [streams.get("b").random() for _ in range(5)]
    assert a != b


def test_reproducible_across_instances():
    a = [RandomStreams(42).get("svc").random() for _ in range(3)]
    b = [RandomStreams(42).get("svc").random() for _ in range(3)]
    # Note: each comprehension creates a fresh family, so draws restart.
    assert a[0] == b[0]
    one = RandomStreams(42)
    two = RandomStreams(42)
    assert [one.get("svc").random() for _ in range(5)] == [
        two.get("svc").random() for _ in range(5)
    ]


def test_different_master_seeds_differ():
    a = RandomStreams(1).get("x").random()
    b = RandomStreams(2).get("x").random()
    assert a != b


def test_derive_seed_stable():
    # Regression pin: derivation must not depend on PYTHONHASHSEED.
    assert derive_seed(0, "x") == derive_seed(0, "x")
    assert derive_seed(0, "x") != derive_seed(1, "x")
    assert derive_seed(0, "x") != derive_seed(0, "y")


def test_consuming_one_stream_does_not_perturb_another():
    family = RandomStreams(9)
    expected = [RandomStreams(9).get("b").random() for _ in range(1)][0]
    for _ in range(100):
        family.get("a").random()
    assert family.get("b").random() == expected


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)


def test_seed_range_is_what_the_key_holds():
    # The store banks a seed in a signed 64-bit column: [0, 2**63) and no
    # more, which the 16-byte BLAKE2b key holds too.
    assert SEED_LIMIT == 2**63
    RandomStreams(SEED_LIMIT - 1).get("x")
    for seed in (-1, SEED_LIMIT, 2**128):
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            RandomStreams(seed)
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            derive_seed(seed, "x")
