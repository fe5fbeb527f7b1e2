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

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

__version__ = "1.0.0"

from repro.bgp import BGPConfig, BGPNetwork, ConstantMRAI, DampingConfig
from repro.bgp.policy import (
    ASRelationships,
    GaoRexfordPolicy,
    infer_relationships,
    infer_relationships_hierarchical,
)
from repro.core import (
    AdaptiveExtentMRAI,
    DegreeDependentMRAI,
    DynamicMRAI,
    ExperimentResult,
    ExperimentSpec,
    Series,
    TrialResult,
    recommend_ladder,
    recommend_mrai,
    run_experiment,
    run_trials,
    validate_routing,
)
from repro.failures import (
    FailureScenario,
    geographic_failure,
    random_failure,
    single_node_failure,
)
from repro.obs import (
    EventLoopProfiler,
    MetricsRegistry,
    NetworkProbe,
    ObsSession,
    RunManifest,
)
from repro.topology import (
    InternetDegreeDistribution,
    MultiRouterSpec,
    SkewedDegreeSpec,
    Topology,
    barabasi_albert_topology,
    glp_topology,
    internet_like_topology,
    multi_router_topology,
    skewed_topology,
    waxman_topology,
)

__all__ = [
    "ASRelationships",
    "AdaptiveExtentMRAI",
    "BGPConfig",
    "BGPNetwork",
    "ConstantMRAI",
    "DampingConfig",
    "DegreeDependentMRAI",
    "DynamicMRAI",
    "EventLoopProfiler",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureScenario",
    "GaoRexfordPolicy",
    "MetricsRegistry",
    "NetworkProbe",
    "ObsSession",
    "RunManifest",
    "InternetDegreeDistribution",
    "MultiRouterSpec",
    "Series",
    "SkewedDegreeSpec",
    "Topology",
    "TrialResult",
    "__version__",
    "barabasi_albert_topology",
    "geographic_failure",
    "glp_topology",
    "infer_relationships",
    "infer_relationships_hierarchical",
    "internet_like_topology",
    "multi_router_topology",
    "random_failure",
    "recommend_ladder",
    "recommend_mrai",
    "run_experiment",
    "run_trials",
    "single_node_failure",
    "skewed_topology",
    "validate_routing",
    "waxman_topology",
]
