"""Declarative experiment descriptions: registries + round-trip dicts.

This package is the single source of truth for what an experiment *is*
as data.  The CLI, campaign files, the figure harness and the
content-addressed store all build :class:`~repro.core.experiment.
ExperimentSpec` objects through :func:`build_spec` and serialize them
back through :func:`spec_to_dict`, so

* a campaign JSON can express every scheme the ``run`` subcommand can,
* new MRAI schemes / policy kinds / topology kinds are registered once
  (:func:`register_mrai_scheme`, ``POLICY_BLOCKS.register``,
  ``TOPOLOGY_KINDS.register``) and become usable everywhere, and
* two construction paths meaning the same experiment share one cache
  fingerprint.

See ``docs/SPECS.md`` for the dict schema and registration walkthrough.
"""

from repro.specs.blocks import (
    POLICY_BLOCKS,
    QUEUE_DISCIPLINES,
    build_damping,
    build_policy,
    check_queue_discipline,
    damping_to_block,
    policy_needs_topology,
    policy_to_block,
    validate_policy_block,
)
from repro.specs.mrai import (
    MRAI_SCHEMES,
    MRAIScheme,
    build_mrai,
    mrai_scheme_params,
    mrai_to_scheme,
    register_mrai_scheme,
)
from repro.specs.registry import Registry
from repro.specs.scheme_sets import (
    SCHEME_SETS,
    register_scheme_set,
    scheme_set,
)
from repro.specs.serialize import (
    SpecSerializationError,
    build_spec,
    scheme_keys,
    scheme_requires_topology,
    spec_from_dict,
    spec_to_dict,
    validate_scheme,
)
from repro.specs.topology import (
    DISTRIBUTIONS,
    TOPOLOGY_KINDS,
    distribution_spec,
    topology_factory,
    validate_topology_block,
)

__all__ = [
    "Registry",
    # MRAI schemes
    "MRAI_SCHEMES",
    "MRAIScheme",
    "register_mrai_scheme",
    "mrai_scheme_params",
    "build_mrai",
    "mrai_to_scheme",
    # queue / damping / policy blocks
    "QUEUE_DISCIPLINES",
    "check_queue_discipline",
    "build_damping",
    "damping_to_block",
    "POLICY_BLOCKS",
    "validate_policy_block",
    "build_policy",
    "policy_to_block",
    "policy_needs_topology",
    # topology blocks
    "DISTRIBUTIONS",
    "TOPOLOGY_KINDS",
    "topology_factory",
    "distribution_spec",
    "validate_topology_block",
    # spec round-trip
    "build_spec",
    "spec_from_dict",
    "spec_to_dict",
    "validate_scheme",
    "scheme_keys",
    "scheme_requires_topology",
    "SpecSerializationError",
    # figure scheme sets
    "SCHEME_SETS",
    "register_scheme_set",
    "scheme_set",
]
