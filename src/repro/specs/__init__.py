"""Declarative experiment descriptions: vocabulary tables + round-trip dicts.

This package is the single source of truth for what an experiment *is*
as data.  The CLI, campaign files, the figure harness and the
content-addressed store all build :class:`~repro.core.experiment.
ExperimentSpec` objects through :func:`build_spec` and serialize them
back through :func:`spec_to_dict`, so

* a campaign JSON can express every scheme the ``run`` subcommand can,
* each vocabulary — MRAI schemes, policy kinds, topology kinds, degree
  distributions, figure scheme sets — is one plain dict
  (``mrai.MRAI_SCHEMES``, ``blocks.POLICY_BLOCKS``,
  ``topology.TOPOLOGY_KINDS``, ``topology.DISTRIBUTIONS``,
  ``scheme_sets.SCHEME_SETS``; queue disciplines are
  :data:`repro.bgp.queues.QUEUES`), and an entry there is usable
  everywhere, and
* two construction paths meaning the same experiment share one cache
  fingerprint.

See ``docs/SPECS.md`` for the dict schema and how to add an entry.  The
package re-exports only the names callers outside it import; everything
else is imported from its module.
"""

from repro.specs.mrai import MRAI_SCHEMES, build_mrai
from repro.specs.serialize import build_spec, spec_to_dict
from repro.specs.topology import DISTRIBUTIONS, TOPOLOGY_KINDS, topology_factory

__all__ = [
    "DISTRIBUTIONS",
    "MRAI_SCHEMES",
    "TOPOLOGY_KINDS",
    "build_mrai",
    "build_spec",
    "spec_to_dict",
    "topology_factory",
]
