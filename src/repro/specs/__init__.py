"""Declarative experiment descriptions: vocabulary tables + round-trip dicts.

This package is the single source of truth for what an experiment *is*
as data.  The CLI, campaign files, the figure harness and the
content-addressed store all build :class:`~repro.core.experiment.
ExperimentSpec` objects through :func:`build_spec` and serialize them
back through :func:`spec_to_dict`, so

* a campaign JSON can express every scheme the ``run`` subcommand can,
* each vocabulary — MRAI schemes, policy kinds, topology kinds, degree
  distributions, figure scheme sets — is one plain dict
  (``MRAI_SCHEMES``, ``POLICY_BLOCKS``, ``TOPOLOGY_KINDS``,
  ``DISTRIBUTIONS``, ``SCHEME_SETS``; queue disciplines are
  :data:`repro.bgp.queues.QUEUES`), and an entry there is usable
  everywhere, and
* two construction paths meaning the same experiment share one cache
  fingerprint.

See ``docs/SPECS.md`` for the dict schema and how to add an entry.
"""

from repro.specs.blocks import (
    POLICY_BLOCKS,
    build_damping,
    build_policy,
    damping_to_block,
    policy_needs_topology,
    validate_policy_block,
)
from repro.specs.mrai import (
    MRAI_SCHEMES,
    MRAIScheme,
    build_mrai,
    mrai_scheme_params,
)
from repro.specs.scheme_sets import SCHEME_SETS, scheme_set
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
    # MRAI schemes
    "MRAI_SCHEMES",
    "MRAIScheme",
    "mrai_scheme_params",
    "build_mrai",
    # damping / policy blocks
    "build_damping",
    "damping_to_block",
    "POLICY_BLOCKS",
    "validate_policy_block",
    "build_policy",
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
    "scheme_set",
]
