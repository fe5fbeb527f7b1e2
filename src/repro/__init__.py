"""repro — reproduction of "Improving BGP Convergence Delay for Large-Scale
Failures" (Sahoo, Kant, Mohapatra; DSN 2006).

An event-driven BGP-4 simulator (the SSFNet substitute), BRITE-style topology
generation, geographic failure injection, and the paper's two contributions:
dynamic MRAI selection and batched update processing.

Quickstart::

    from repro import skewed_topology, ExperimentSpec, ConstantMRAI, run_experiment

    topo = skewed_topology(60, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.05)
    result = run_experiment(topo, spec, seed=1)
    print(result.convergence_delay, result.messages_sent)

The package top re-exports only the quickstart names; everything else is
imported from the module that defines it.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the figure-by-figure reproduction record.
"""

__version__ = "1.0.0"

from repro.bgp.mrai import ConstantMRAI
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.failures.scenarios import geographic_failure
from repro.topology.degree import SkewedDegreeSpec
from repro.topology.multirouter import MultiRouterSpec, multi_router_topology
from repro.topology.skewed import skewed_topology

__all__ = [
    "ConstantMRAI",
    "DynamicMRAI",
    "ExperimentSpec",
    "MultiRouterSpec",
    "SkewedDegreeSpec",
    "__version__",
    "geographic_failure",
    "multi_router_topology",
    "run_experiment",
    "skewed_topology",
]
