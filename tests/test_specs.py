"""Tests for the declarative experiment-description layer (repro.specs).

Headline contracts: every scheme dict the figure harness declares
round-trips through ``spec_to_dict``/``build_spec``; the canonical
dict for each MRAI scheme kind is pinned; validation rejects
typos with per-field messages; and a campaign JSON can express every
scheme kind the ``run`` subcommand can — including topology-resolved
ones — store-backed and fully cacheable.
"""

import json

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.queues import QUEUES
from repro.cli import main
from repro.core.adaptive import AdaptiveExtentMRAI
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec
from repro.figures.common import QUICK
from repro.specs import (
    MRAI_SCHEMES,
    build_mrai,
    build_spec,
    spec_to_dict,
)
from repro.specs.mrai import MRAIScheme
from repro.specs.scheme_sets import SCHEME_SETS, scheme_set
from repro.specs.serialize import (
    SpecSerializationError,
    scheme_keys,
    scheme_requires_topology,
    validate_scheme,
)
from repro.store import Campaign, ResultStore, run_campaign
from repro.topology.skewed import skewed_topology


@pytest.fixture(scope="module")
def topo24():
    return skewed_topology(24, seed=1)


# ----------------------------------------------------------------------
# Round trip: every scheme set, every figure/ablation scheme
# ----------------------------------------------------------------------
@pytest.mark.parametrize("set_name", sorted(SCHEME_SETS))
def test_scheme_sets_round_trip(set_name, topo24):
    pairs = scheme_set(set_name, QUICK)
    assert pairs, set_name
    for label, scheme in pairs:
        spec = build_spec(scheme, topology=topo24)
        d = spec_to_dict(spec)
        # The explicit dict is JSON-serializable (campaign files) ...
        assert json.loads(json.dumps(d)) == d
        # ... and builds a spec with the same dict: spec identity is
        # dict equality, and the dict is a fixed point.
        again = build_spec(d, topology=topo24)
        assert spec_to_dict(again) == d, (set_name, label)


@pytest.mark.parametrize("set_name", sorted(SCHEME_SETS))
def test_scheme_set_dicts_validate_without_topology(set_name):
    # Parse-time validation never needs the network, even for the
    # topology-resolved schemes (adaptive/theory/inferred policy).
    for label, scheme in scheme_set(set_name, QUICK):
        validate_scheme(scheme)


def test_scheme_set_unknown_name():
    with pytest.raises(ValueError, match="unknown scheme set"):
        scheme_set("fig99_schemes", QUICK)


# ----------------------------------------------------------------------
# Golden canonical dicts, one per serializable MRAI scheme kind
# ----------------------------------------------------------------------
#: spec_to_dict output for a default spec, minus the MRAI part.
BASE_DICT = {
    "queue": "fifo",
    "tcp_batch_size": 8,
    "failure_fraction": 0.05,
    "failure_kind": "geographic",
    "failure_center": None,
    "processing_delay_range": [0.001, 0.030],
    "withdrawal_rate_limiting": False,
    "sender_side_loop_detection": True,
    "per_destination_mrai": False,
    "damping": None,
    "policy": None,
    "detection_delay": 0.0,
    "detection_jitter": 0.0,
    "max_convergence_time": 3600.0,
    "max_warmup_time": 3600.0,
    "validate": False,
}

GOLDEN_MRAI_DICTS = {
    "constant": (
        ConstantMRAI(0.5),
        {"mrai_scheme": "constant", "mrai": 0.5},
    ),
    "degree": (
        DegreeDependentMRAI(0.5, 2.25),
        {
            "mrai_scheme": "degree",
            "mrai_low": 0.5,
            "mrai_high": 2.25,
            "degree_threshold": 4,
        },
    ),
    "dynamic": (
        DynamicMRAI(),
        {
            "mrai_scheme": "dynamic",
            "levels": [0.5, 1.25, 2.25],
            "up_th": 0.65,
            "down_th": 0.05,
            "monitor": "queue",
            "mean_service": 0.0155,
            "high_degree_only_threshold": None,
        },
    ),
    "adaptive": (
        AdaptiveExtentMRAI(total_destinations=24),
        {
            "mrai_scheme": "adaptive",
            "calibration": [[0.0, 0.5], [0.04, 1.25], [0.08, 2.25]],
            "window": 5.0,
            "total_destinations": 24,
        },
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_MRAI_DICTS))
def test_spec_to_dict_golden_per_scheme_kind(kind):
    policy, mrai_part = GOLDEN_MRAI_DICTS[kind]
    spec = ExperimentSpec(mrai=policy)
    assert spec_to_dict(spec) == {**mrai_part, **BASE_DICT}
    assert spec.to_dict() == spec_to_dict(spec)


def test_every_serializable_scheme_kind_has_a_golden_dict():
    serializable = {
        name for name, entry in MRAI_SCHEMES.items()
        if entry.serialize is not None
    }
    assert serializable == set(GOLDEN_MRAI_DICTS)


def test_theory_scheme_serializes_as_resolved_dynamic(topo24):
    # "theory" has no serializer of its own: it builds a DynamicMRAI over
    # the recommended ladder, which round-trips as a plain dynamic dict.
    spec = build_spec({"mrai_scheme": "theory"}, topology=topo24)
    d = spec_to_dict(spec)
    assert d["mrai_scheme"] == "dynamic"
    assert spec_to_dict(build_spec(d)) == d


def test_equal_meaning_paths_share_the_canonical_dict(topo24):
    direct = ExperimentSpec(mrai=AdaptiveExtentMRAI(total_destinations=24))
    resolved = build_spec({"mrai_scheme": "adaptive"}, topology=topo24)
    assert spec_to_dict(direct) == spec_to_dict(resolved)


def test_unserializable_policy_raises_with_pointer():
    class OddMRAI(ConstantMRAI):
        pass

    spec = ExperimentSpec(mrai=OddMRAI(0.5))
    # Subclasses don't inherit the serializer: dispatch is exact-type,
    # since a subclass may behave differently under the same dict.
    with pytest.raises(
        SpecSerializationError, match="no registered mrai_scheme serializes"
    ):
        spec_to_dict(spec)


# ----------------------------------------------------------------------
# Typo-rejecting validation with per-field messages
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme, match",
    [
        ({"mria": 0.5}, r"unknown scheme keys \['mria'\]"),
        ({"mrai_scheme": "quantum"}, "unknown mrai_scheme 'quantum'"),
        ({"mrai": -1.0}, "mrai must be non-negative"),
        ({"mrai": "fast"}, "mrai must be a number"),
        (
            {"mrai": 0.5, "levels": [1.0]},
            r"scheme keys \['levels'\] are not parameters of "
            "mrai_scheme 'constant'",
        ),
        (
            {"mrai_scheme": "dynamic", "levels": [2.0, 1.0]},
            "levels must be a non-empty ascending sequence",
        ),
        (
            {"mrai_scheme": "dynamic", "up_th": 0.1, "down_th": 0.5},
            "down_th must not exceed up_th",
        ),
        (
            {"mrai_scheme": "dynamic", "monitor": "vibes"},
            "unknown monitor 'vibes'",
        ),
        (
            {"mrai_scheme": "adaptive", "calibration": [[0.1, 0.5]]},
            "calibration",
        ),
        ({"queue": "lifo"}, "unknown queue discipline 'lifo'"),
        ({"damping": {"half_lif": 4.0}}, "unknown damping keys"),
        ({"policy": {"kind": "rpki"}}, "unknown routing policy 'rpki'"),
        (
            {"policy": {"kind": "gao-rexford"}},
            "exactly one of",
        ),
        ({"validate": "yes"}, "validate must be true or false"),
        ({"tcp_batch_size": 2.5}, "tcp_batch_size must be an integer"),
        (
            {"processing_delay_range": [0.1]},
            r"processing_delay_range must be a \[min, max\] pair",
        ),
        ({"mrai_scheme": ["x"]}, r"unknown mrai_scheme \['x'\]"),
        (
            {"policy": {"kind": "gao-rexford", "infer": "degree"}},
            "unknown infer mode 'degree'",
        ),
        (
            {
                "policy": {
                    "kind": "gao-rexford",
                    "infer": "hierarchical",
                    "peer_degree_ratio": 2,
                }
            },
            r"unknown policy keys \['peer_degree_ratio'\]",
        ),
    ],
)
def test_validation_messages(scheme, match):
    with pytest.raises(ValueError, match=match):
        validate_scheme(scheme)


def test_build_requires_topology_only_when_needed(topo24):
    assert not scheme_requires_topology({"mrai": 0.5})
    assert not scheme_requires_topology(
        {"mrai_scheme": "adaptive", "total_destinations": 24}
    )
    for scheme in (
        {"mrai_scheme": "adaptive"},
        {"mrai_scheme": "theory"},
        {"policy": {"kind": "gao-rexford", "infer": "hierarchical"}},
    ):
        assert scheme_requires_topology(scheme)
        with pytest.raises(ValueError, match="needs a topology"):
            build_spec(scheme)
        build_spec(scheme, topology=topo24)  # resolves fine with one


def test_scheme_keys_cover_registered_params():
    keys = scheme_keys()
    assert {"mrai_scheme", "damping", "policy", "queue", "mrai"} <= keys
    assert "levels" in keys and "calibration" in keys


# ----------------------------------------------------------------------
# Extending a table: no CLI/campaign/figure edits needed
# ----------------------------------------------------------------------
def test_register_custom_mrai_scheme_and_scheme_set(monkeypatch):
    # A new scheme or scheme set is one table entry, nothing else.
    monkeypatch.setitem(
        MRAI_SCHEMES,
        "jittered",
        MRAIScheme(
            params=("mrai",),
            parse=lambda scheme: {"mrai": float(scheme.get("mrai", 0.5))},
            build=lambda parsed, topology: ConstantMRAI(parsed["mrai"]),
        ),
    )
    monkeypatch.setitem(
        SCHEME_SETS,
        "custom_pair",
        lambda profile: (
            ("base", {"mrai": 0.5}),
            ("jittered", {"mrai_scheme": "jittered", "mrai": 0.75}),
        ),
    )
    spec = build_spec({"mrai_scheme": "jittered", "mrai": 0.75})
    assert spec_to_dict(spec)["mrai"] == 0.75
    labels = [label for label, _ in scheme_set("custom_pair", QUICK)]
    assert labels == ["base", "jittered"]
    # Campaigns see the new scheme through the same table.
    campaign = Campaign.from_dict(
        {
            "name": "custom",
            "topology": {"kind": "skewed", "nodes": 16},
            "schemes": {"j": {"mrai_scheme": "jittered"}},
            "axis": {"name": "failure_fraction", "values": [0.1]},
            "seeds": [1],
        }
    )
    assert spec_to_dict(campaign.base_spec("j"))["mrai"] == 0.5


def test_build_mrai_direct(topo24):
    constant = ExperimentSpec(mrai=build_mrai({"mrai": 2.25}))
    assert spec_to_dict(constant)["mrai"] == 2.25
    adaptive = build_mrai({"mrai_scheme": "adaptive"}, topo24)
    assert isinstance(adaptive, AdaptiveExtentMRAI)
    assert ExperimentSpec(mrai=adaptive).to_dict()[
        "total_destinations"
    ] == len(topo24.as_numbers())


# ----------------------------------------------------------------------
# Campaign parity: every scheme kind the CLI can run, store-backed
# ----------------------------------------------------------------------
def zoo_campaign(**overrides):
    """One campaign scheme per kind the ``run`` subcommand supports."""
    schemes = {
        "constant": {"mrai": 0.5},
        "degree": {"mrai_scheme": "degree", "mrai_low": 0.5,
                   "mrai_high": 2.25},
        "dynamic": {"mrai_scheme": "dynamic"},
        "adaptive": {"mrai_scheme": "adaptive"},
        "theory": {"mrai_scheme": "theory"},
        "damped": {"mrai": 0.5, "damping": {"half_life": 4.0}},
        "policy": {
            "mrai": 0.5,
            "policy": {"kind": "gao-rexford", "infer": "hierarchical"},
        },
    }
    schemes.update(
        {f"q-{q}": {"mrai": 0.5, "queue": q} for q in sorted(QUEUES)}
    )
    data = {
        "name": "zoo",
        "topology": {"kind": "skewed", "nodes": 20, "distribution": "70-30"},
        "schemes": schemes,
        "axis": {"name": "failure_fraction", "values": [0.1]},
        "seeds": [1],
    }
    data.update(overrides)
    return Campaign.from_dict(data)


def test_campaign_expresses_every_scheme_kind(tmp_path):
    campaign = zoo_campaign()
    # Topology-resolved schemes build against the first seed's topology.
    adaptive = campaign.base_spec("adaptive")
    assert isinstance(adaptive.mrai, AdaptiveExtentMRAI)
    assert isinstance(campaign.base_spec("theory").mrai, DynamicMRAI)
    assert campaign.base_spec("damped").damping is not None
    assert campaign.base_spec("policy").policy is not None

    with ResultStore(tmp_path / "zoo.db") as store:
        cold = run_campaign(campaign, store)
        assert cold.executed == campaign.total_trials
        warm = run_campaign(campaign, store)
    assert warm.executed == 0 and warm.cache_hit_rate == 1.0
    labels = sorted(s.label for s in cold.series)
    assert labels == sorted(campaign.schemes)


def test_adaptive_campaign_resumes_fully_cached(tmp_path):
    # The topology-resolved schemes hash deterministically: a fresh
    # Campaign object (fresh resolution) still hits 100% cache.
    def make():
        return Campaign.from_dict(
            {
                "name": "adaptive-smoke",
                "topology": {"kind": "skewed", "nodes": 20},
                "schemes": {
                    "adaptive": {"mrai_scheme": "adaptive"},
                    "theory": {"mrai_scheme": "theory"},
                },
                "axis": {"name": "failure_fraction", "values": [0.1, 0.2]},
                "seeds": [1],
            }
        )

    with ResultStore(tmp_path / "a.db") as store:
        cold = run_campaign(make(), store)
        assert cold.executed == 4
        warm = run_campaign(make(), store)
    assert warm.executed == 0 and warm.cache_hit_rate == 1.0


def test_campaign_rejects_bad_scheme_with_label():
    with pytest.raises(ValueError, match="scheme 'bad': unknown scheme keys"):
        zoo_campaign(schemes={"bad": {"mria": 0.5}})


# ----------------------------------------------------------------------
# The campaign validate fast path (CLI)
# ----------------------------------------------------------------------
def test_cli_campaign_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(zoo_campaign().to_dict()))
    assert main(["campaign", "validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "campaign 'zoo'" in out

    bad = tmp_path / "bad.json"
    data = zoo_campaign().to_dict()
    data["schemes"]["typo"] = {"mrai_scheme": "quantum"}
    bad.write_text(json.dumps(data))
    assert main(["campaign", "validate", str(good), str(bad)]) == 2
    captured = capsys.readouterr()
    assert "INVALID" in captured.err
    assert "unknown mrai_scheme 'quantum'" in captured.err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["campaign", "validate", str(broken)]) == 2
    assert "INVALID" in capsys.readouterr().err
