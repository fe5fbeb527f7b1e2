"""Tests for content-addressed trial hashing (repro.store.hashing).

The golden vectors pin ``spec_hash`` output for representative specs.
If one of these assertions starts failing, the hash function's output
changed — which silently invalidates every existing result store (or,
if the pre-image semantics drifted, silently *reuses* stale entries).
That must be a deliberate decision: bump ``SCHEMA_VERSION`` and re-pin
the vectors in the same commit.
"""

import pytest

from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI, MRAIPolicy, StaticController
from repro.bgp.policy import (
    ASRelationships,
    GaoRexfordPolicy,
    ShortestPathPolicy,
)
from repro.core.adaptive import AdaptiveExtentMRAI
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec
from repro.specs.serialize import SpecSerializationError, spec_to_dict
from repro.store.hashing import (
    SCHEMA_VERSION,
    canonical,
    spec_fingerprint,
    spec_hash,
    topology_digest,
    trial_key,
)
from repro.topology.skewed import skewed_topology


def topo12():
    return skewed_topology(12, seed=1)


def relationships_1_2_3():
    """AS 2 is AS 1's customer; ASes 2 and 3 peer."""
    rels = ASRelationships()
    rels.set_customer(1, 2)
    rels.set_peers(2, 3)
    return rels


def spec_for(label):
    return {
        "constant": ExperimentSpec(
            mrai=ConstantMRAI(0.5), failure_fraction=0.1
        ),
        "constant_2.25": ExperimentSpec(
            mrai=ConstantMRAI(2.25), failure_fraction=0.1
        ),
        "degree": ExperimentSpec(
            mrai=DegreeDependentMRAI(0.5, 2.25), failure_fraction=0.1
        ),
        "dynamic": ExperimentSpec(mrai=DynamicMRAI(), failure_fraction=0.1),
        "constant_frac_0.2": ExperimentSpec(
            mrai=ConstantMRAI(0.5), failure_fraction=0.2
        ),
        "adaptive_total_12": ExperimentSpec(
            mrai=AdaptiveExtentMRAI(total_destinations=12),
            failure_fraction=0.1,
        ),
        "damping": ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            damping=DampingConfig(half_life=4.0),
        ),
        "shortest_path": ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            policy=ShortestPathPolicy(),
        ),
        "gao_rexford_inline": ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            policy=GaoRexfordPolicy(relationships_1_2_3()),
        ),
        "dest_batch": ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            queue_discipline="dest_batch",
        ),
        "per_destination_mrai": ExperimentSpec(
            mrai=ConstantMRAI(0.5),
            failure_fraction=0.1,
            per_destination_mrai=True,
        ),
    }[label]


# ----------------------------------------------------------------------
# Golden vectors (schema version 2, skewed_topology(12, seed=1), seed 1)
#
# v2 fingerprints declarative specs via spec_to_dict (repro.specs), so
# equal-meaning construction paths share cache keys; see docs/STORAGE.md
# for the migration note.
# ----------------------------------------------------------------------
GOLDEN = {
    "constant": (
        "749dd9ff806630e7280ac1eb6661eee9"
        "e62ff1015d7e770dab892361ff8420f5"
    ),
    "constant_2.25": (
        "7cc1913abaf5dbce17b79f98c0ef7402"
        "4e15c9f4260d04b536a6467e9db14142"
    ),
    "degree": (
        "57d89574d07515663d1da0ef0b32d848"
        "142c7960464660cf83cec089da7fde99"
    ),
    "dynamic": (
        "a81580ab35baa04400f3c65fedf41af7"
        "943e762054de9d7f641a6a4aedb126f0"
    ),
    "constant_frac_0.2": (
        "91218013d6856a1dffc997c715e903f1"
        "eb6d89568ebbd5c9bab2f548882b5f1b"
    ),
    "adaptive_total_12": (
        "4bdc3e2ec251e0002d59138efa80ad48"
        "fcdbfe601fa14fee59f6fc6354defd07"
    ),
    "damping": (
        "5991f61dcffc9cbf3920079369ede84d"
        "e994ea748b5e47195b771440ce26ab6b"
    ),
    "shortest_path": (
        "3465bedd6f7dc5b06bf15a2012b49fac"
        "79a163d55de9afe9af3427aaaa1a58e5"
    ),
    "gao_rexford_inline": (
        "d85d040ba60700d18a49d0660ad535d7"
        "607e595d2e277eceb14af5f62785f9c9"
    ),
    "dest_batch": (
        "a904b51dc23e45e130e84a502c95bfd7"
        "17312694d8bb832c197870e0a6926b98"
    ),
    "per_destination_mrai": (
        "f88a6e3f6addf73bc5531757443c4d9e"
        "083e1b4be2a6f7ed2598dd3cf78d8871"
    ),
}
GOLDEN_TOPOLOGY_DIGEST = "3dade353fa1503001694cee6fe53b2bd"
GOLDEN_SEED2 = (
    "0c448211033998dca6b6b171f216ffa8"
    "0ffcda244c10142317351841ea4aab62"
)


def test_schema_version_is_pinned_with_the_vectors():
    # The vectors above were computed under this version; bumping it
    # must come with freshly pinned hashes.
    assert SCHEMA_VERSION == 2


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_spec_hash_golden_vectors(label):
    assert spec_hash(spec_for(label), topo12(), 1) == GOLDEN[label]


def test_topology_digest_golden_vector():
    assert topology_digest(topo12()) == GOLDEN_TOPOLOGY_DIGEST


def test_seed_changes_hash():
    spec = spec_for("constant")
    assert spec_hash(spec, topo12(), 2) == GOLDEN_SEED2
    assert GOLDEN_SEED2 != GOLDEN["constant"]


def test_all_vectors_distinct():
    values = list(GOLDEN.values()) + [GOLDEN_SEED2]
    assert len(set(values)) == len(values)


# ----------------------------------------------------------------------
# Structural properties (not pinned — must hold for any schema version)
# ----------------------------------------------------------------------
def test_hash_is_deterministic_across_instances():
    # Fresh spec/topology objects with equal content hash identically —
    # the property that lets a re-run hit the cache at all.
    a = spec_hash(spec_for("constant"), topo12(), 1)
    b = spec_hash(spec_for("constant"), topo12(), 1)
    assert a == b


def test_topology_content_not_identity_is_hashed():
    same = skewed_topology(12, seed=1)
    other = skewed_topology(12, seed=2)
    assert topology_digest(topo12()) == topology_digest(same)
    assert topology_digest(topo12()) != topology_digest(other)


def test_spec_field_change_changes_hash():
    base = spec_for("constant")
    assert spec_hash(base, topo12(), 1) != spec_hash(
        spec_for("constant_frac_0.2"), topo12(), 1
    )


def test_fingerprint_carries_schema_and_seed():
    fp = spec_fingerprint(spec_for("constant"), topo12(), 7)
    assert fp["schema"] == SCHEMA_VERSION
    assert fp["seed"] == 7
    assert fp["topology"] == GOLDEN_TOPOLOGY_DIGEST


def test_canonical_is_order_insensitive_for_mappings():
    assert canonical({"b": 2, "a": 1}) == canonical({"a": 1, "b": 2})


def test_canonical_sorts_sets():
    assert canonical({3, 1, 2}) == canonical({2, 3, 1})


def test_canonical_policy_object_includes_type_and_fields():
    # A policy object reaches the hash through its declarative form: its
    # scheme name and its fields, never its Python identity.
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5))
    enc = dict(canonical(spec_to_dict(spec)))
    assert enc["mrai_scheme"] == "constant"
    assert enc["mrai"] == 0.5


def test_canonical_refuses_what_is_not_declarative_data():
    for value in (ConstantMRAI(0.5), ConstantMRAI, len):
        with pytest.raises(TypeError, match="only declarative data"):
            canonical({"spec": [value]})


class Scaled(MRAIPolicy):
    """An MRAI policy with no serializer, holding its value privately."""

    def __init__(self, value):
        self._value = value

    def controller_for(self, node_id, degree):
        return StaticController(self._value)


def test_spec_with_no_declarative_form_has_no_key():
    # Scaled(0.5) and Scaled(2.25) run different trials but share every
    # public attribute: a spec without a serializer has no key, rather
    # than one that collides.
    for value in (0.5, 2.25):
        spec = ExperimentSpec(mrai=Scaled(value), failure_fraction=0.1)
        for fingerprint in (spec_hash, spec_fingerprint):
            with pytest.raises(
                SpecSerializationError,
                match="give its MRAI_SCHEMES entry a policy_type",
            ):
                fingerprint(spec, topo12(), 1)
        with pytest.raises(SpecSerializationError):
            trial_key(spec, GOLDEN_TOPOLOGY_DIGEST, 1)
