"""Round-trip serialization between scheme dicts and ExperimentSpec.

The *scheme dict* is the repo's one declarative experiment description:
the flat JSON object campaign files put under ``"schemes"``, the CLI
builds from its flags, and the figure harness declares its scheme sets
in.  :func:`build_spec` turns a (possibly sparse) scheme dict into an
:class:`~repro.core.experiment.ExperimentSpec`; :func:`spec_to_dict`
emits the fully explicit dict for a spec, such that

    spec_to_dict(build_spec(spec_to_dict(spec))) == spec_to_dict(spec)

holds for every spec whose policies have a serializer.  The explicit
dict is the one form in which a spec leaves the process: the
content-addressed store fingerprints it (:mod:`repro.store.hashing`),
so two construction paths that mean the same experiment share cache
entries, and the run manifest records it, so ``build_spec`` of the
manifest's ``spec`` re-runs the trial.  Spec identity is equality of
this dict; policy objects do not compare by value.

Validation is typo-rejecting at every level: unknown scheme keys,
parameters that do not belong to the selected ``mrai_scheme``, malformed
``levels``/``calibration`` tables, unknown queue disciplines and bad
damping/policy blocks all fail at parse time with per-field messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.queues import QUEUES
from repro.core.experiment import ExperimentSpec
from repro.specs.blocks import (
    POLICY_BLOCKS,
    build_damping,
    build_policy,
    damping_to_block,
    policy_needs_topology,
    validate_policy_block,
)
from repro.specs.fields import boolean, integer, lookup, number, pair
from repro.specs.mrai import (
    MRAI_SCHEMES,
    build_mrai,
    mrai_scheme_params,
    scheme_entry,
    scheme_needs_topology as _mrai_needs_topology,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.graph import Topology


class SpecSerializationError(ValueError):
    """A spec cannot be expressed as a declarative dict.

    Raised by :func:`spec_to_dict` when a policy object's class has no
    serializer.  Such a spec runs, but it has no store key and no
    manifest record: the store and observation refuse it.
    """


#: The inverse of building: a policy's exact class -> its declarative
#: dict.  A subclass does not inherit its parent's entry, since it may
#: behave differently under the same dict.
_SERIALIZERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    entry.policy_type: entry.serialize
    for entry in (*MRAI_SCHEMES.values(), *POLICY_BLOCKS.values())
    if entry.policy_type is not None
}


def _declare(policy: Any, kind: str, table: str) -> Dict[str, Any]:
    serialize = _SERIALIZERS.get(type(policy))
    if serialize is None:
        cls = type(policy)
        raise SpecSerializationError(
            f"no registered {kind} serializes "
            f"{cls.__module__}.{cls.__qualname__}; give its {table} entry "
            f"a policy_type and serialize to make this spec declarative"
        )
    return serialize(policy)


def _queue(value: Any, key: str) -> str:
    lookup(QUEUES, "queue discipline", str(value))
    return str(value)


#: Spec-level scheme keys: scheme-dict key -> (ExperimentSpec field,
#: parser(value, key)).  MRAI parameters come from the scheme table.
_SPEC_FIELDS = {
    "queue": ("queue_discipline", _queue),
    "tcp_batch_size": ("tcp_batch_size", integer),
    "failure_fraction": ("failure_fraction", number),
    "failure_kind": ("failure_kind", lambda value, key: str(value)),
    "failure_center": (
        "failure_center",
        lambda value, key: None if value is None else pair(value, key),
    ),
    "processing_delay_range": ("processing_delay_range", pair),
    "withdrawal_rate_limiting": ("withdrawal_rate_limiting", boolean),
    "sender_side_loop_detection": ("sender_side_loop_detection", boolean),
    "per_destination_mrai": ("per_destination_mrai", boolean),
    "detection_delay": ("detection_delay", number),
    "detection_jitter": ("detection_jitter", number),
    "max_convergence_time": ("max_convergence_time", number),
    "max_warmup_time": ("max_warmup_time", number),
    "validate": ("validate", boolean),
}


def scheme_keys() -> frozenset:
    """Every key a scheme dict may contain (table-derived)."""
    return (
        frozenset({"mrai_scheme", "damping", "policy"})
        | mrai_scheme_params()
        | frozenset(_SPEC_FIELDS)
    )


def scheme_requires_topology(scheme: Dict[str, Any]) -> bool:
    """Whether :func:`build_spec` needs a topology for this scheme."""
    if _mrai_needs_topology(scheme):
        return True
    return policy_needs_topology(scheme.get("policy"))


def validate_scheme(scheme: Dict[str, Any]) -> ExperimentSpec:
    """Parse-time validation of a scheme dict, without a topology.

    Runs every check :func:`build_spec` would — unknown keys, per-field
    parameter messages, spec-level constraints — but skips resolving the
    topology-dependent pieces (adaptive/theory policies, inferred
    relationships), so campaign files validate instantly.  Returns the
    spec with stand-ins for those pieces: every other field is the
    scheme's, so a campaign can check its axis points against it.
    """
    return _build(scheme, topology=None, resolve=False)


def build_spec(
    scheme: Dict[str, Any], topology: Optional["Topology"] = None
) -> ExperimentSpec:
    """An :class:`ExperimentSpec` from a declarative scheme dictionary.

    ``mrai_scheme`` names an ``MRAI_SCHEMES`` entry (default
    ``constant``) whose parameters ride alongside; the remaining keys
    set spec-level fields (``queue``, ``failure_fraction``, ``damping``,
    ``policy``, ...).  Unknown keys — and parameters that belong to a
    *different* mrai_scheme — are errors: typos must not silently
    produce a differently-hashed spec.  Schemes that resolve against the
    network (``adaptive``/``theory`` MRAI, inferred Gao-Rexford
    relationships) need ``topology``.
    """
    return _build(scheme, topology=topology, resolve=True)


def _build(
    scheme: Dict[str, Any],
    topology: Optional["Topology"],
    resolve: bool,
) -> ExperimentSpec:
    known = scheme_keys()
    unknown = set(scheme) - known
    if unknown:
        raise ValueError(
            f"unknown scheme keys {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    kind, entry = scheme_entry(scheme)  # raises "unknown mrai_scheme ..."
    foreign = (set(scheme) & mrai_scheme_params()) - set(entry.params)
    if foreign:
        raise ValueError(
            f"scheme keys {sorted(foreign)} are not parameters of "
            f"mrai_scheme {kind!r} (its parameters: {sorted(entry.params)})"
        )
    if resolve or not _mrai_needs_topology(scheme):
        mrai = build_mrai(scheme, topology)
    else:
        # Validation-only path: the parameters were parsed (and hence
        # checked) by _mrai_needs_topology; stand in a constant policy
        # so the spec-level checks below still run.
        mrai = ConstantMRAI(0.5)

    spec_kwargs: Dict[str, Any] = {"mrai": mrai}
    for key, (field_name, parse) in _SPEC_FIELDS.items():
        if key in scheme:
            spec_kwargs[field_name] = parse(scheme[key], key)
    if scheme.get("damping") is not None:
        spec_kwargs["damping"] = build_damping(scheme["damping"])
    if scheme.get("policy") is not None:
        block = scheme["policy"]
        validate_policy_block(block)
        if resolve or not policy_needs_topology(block):
            spec_kwargs["policy"] = build_policy(block, topology)
    # ExperimentSpec.__post_init__ validates the cross-field constraints
    # (failure_fraction range, failure_kind, detection delays).
    return ExperimentSpec(**spec_kwargs)


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """The fully explicit declarative dict for ``spec``.

    Every field is present (defaults included), so the dict doubles as
    the canonical fingerprint form for the content-addressed store —
    and ``build_spec`` of the result reproduces a spec with this dict.
    Raises :class:`SpecSerializationError` when the spec's MRAI or
    routing policy has no serializer.
    """
    out: Dict[str, Any] = dict(
        _declare(spec.mrai, "mrai_scheme", "MRAI_SCHEMES")
    )
    out["queue"] = spec.queue_discipline
    out["tcp_batch_size"] = spec.tcp_batch_size
    out["failure_fraction"] = spec.failure_fraction
    out["failure_kind"] = spec.failure_kind
    out["failure_center"] = (
        None if spec.failure_center is None else list(spec.failure_center)
    )
    out["processing_delay_range"] = list(spec.processing_delay_range)
    out["withdrawal_rate_limiting"] = spec.withdrawal_rate_limiting
    out["sender_side_loop_detection"] = spec.sender_side_loop_detection
    out["per_destination_mrai"] = spec.per_destination_mrai
    out["damping"] = (
        None if spec.damping is None else damping_to_block(spec.damping)
    )
    out["policy"] = (
        None
        if spec.policy is None
        else _declare(spec.policy, "policy block", "POLICY_BLOCKS")
    )
    out["detection_delay"] = spec.detection_delay
    out["detection_jitter"] = spec.detection_jitter
    out["max_convergence_time"] = spec.max_convergence_time
    out["max_warmup_time"] = spec.max_warmup_time
    out["validate"] = spec.validate
    return out
