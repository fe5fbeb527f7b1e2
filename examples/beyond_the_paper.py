#!/usr/bin/env python3
"""Everything the paper left for future work, running together.

Four scenarios on the same 60-node network and 10% geographic failure:

1. **Realistic failure detection** — each survivor notices the failure
   when its hold timer expires, 3 s + Uniform(0, 1) s after it, instead
   of at the failure instant.
2. **Failure-extent-adaptive MRAI** — the Sec-5 wish: estimate the
   failure's extent from destination churn and jump straight to the
   right MRAI (plus the analytically derived ladder from
   ``repro.core.theory``, needing no measured sweep at all).
3. **Withdrawal-first batching** — the proposed batching refinement:
   schedule bad news ahead of re-advertisements.
4. **Route flap damping (RFC 2439)** — what operators actually deployed,
   for contrast.

Run:  python examples/beyond_the_paper.py
"""

from repro import SkewedDegreeSpec, skewed_topology
from repro.bgp.config import BGPConfig
from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.core.adaptive import AdaptiveExtentMRAI
from repro.core.theory import recommend_ladder, recommend_mrai
from repro.core.dynamic_mrai import DynamicMRAI
from repro.failures.scenarios import geographic_failure

NODES = 60
FAILURE = 0.10


def main() -> None:
    topology = skewed_topology(NODES, SkewedDegreeSpec.paper_70_30(), seed=5)
    scenario = geographic_failure(topology, FAILURE)
    print(topology.summary())
    print(f"failing {scenario.description}\n")

    # --- 1. Hold-timer detection vs instantaneous detection -----------
    print("=== failure detection (constant MRAI 0.5 s) ===")
    for label, delay, jitter in (
        ("instantaneous", 0.0, 0.0),
        ("hold timer 3 s + U(0, 1) s", 3.0, 1.0),
    ):
        net = BGPNetwork(topology, BGPConfig(mrai_policy=ConstantMRAI(0.5)), seed=1)
        net.start()
        net.run_until_quiet(max_time=3600.0)
        t0 = net.fail_nodes(
            scenario.nodes, detection_delay=delay, detection_jitter=jitter
        )
        net.run_until_quiet(max_time=t0 + 3600.0)
        print(f"  {label:28s} convergence delay {net.last_activity - t0:6.2f} s")
    print()

    # --- 2/3/4. Future-work schemes vs the deployed mechanism -----------
    ladder = recommend_ladder(topology)
    print("analytic MRAI model (repro.core.theory):")
    for fraction in (0.02, 0.05, 0.10, 0.20):
        print(f"  predicted optimal MRAI @ {fraction:4.0%}: "
              f"{recommend_mrai(topology, fraction):5.2f} s")
    print(f"  derived dynamic ladder: {ladder}\n")

    configs = {
        "constant 0.5 s (baseline)": BGPConfig(mrai_policy=ConstantMRAI(0.5)),
        "adaptive failure-extent MRAI": BGPConfig(
            mrai_policy=AdaptiveExtentMRAI(total_destinations=NODES)
        ),
        "dynamic MRAI @ analytic ladder": BGPConfig(
            mrai_policy=DynamicMRAI(levels=ladder)
        ),
        "withdrawal-first batching": BGPConfig(
            mrai_policy=ConstantMRAI(0.5), queue_discipline="dest_batch_wf"
        ),
        "flap damping (RFC 2439)": BGPConfig(
            mrai_policy=ConstantMRAI(0.5),
            damping=DampingConfig(half_life=4.0),
        ),
    }
    print(f"{'scheme':34s} {'delay':>8s} {'messages':>9s} {'notes'}")
    for label, config in configs.items():
        net = BGPNetwork(topology, config, seed=1)
        net.start()
        net.run_until_quiet(max_time=3600.0)
        snapshot = net.counters.snapshot()
        t0 = net.fail_nodes(scenario.nodes)
        net.run_until_quiet(max_time=t0 + 3600.0)
        diff = net.counters.diff(snapshot)
        notes = []
        if diff.get("updates_dropped_stale"):
            notes.append(f"{diff['updates_dropped_stale']} stale deleted")
        if diff.get("routes_suppressed"):
            notes.append(
                f"{diff['routes_suppressed']} suppressed / "
                f"{diff.get('routes_reused', 0)} reused"
            )
        print(
            f"{label:34s} {net.last_activity - t0:7.2f}s "
            f"{diff.get('updates_sent', 0):9d} {'; '.join(notes)}"
        )


if __name__ == "__main__":
    main()
