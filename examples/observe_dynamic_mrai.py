#!/usr/bin/env python3
"""The observability layer end to end: watch dynamic MRAI do its job.

One :class:`~repro.obs.session.ObsSession` instruments a 60-node run with a
20% geographic failure under the paper's dynamic MRAI scheme:

* the **metrics registry** mirrors the network counters and per-node
  signals (updates processed, queue depths, service-time histograms);
* a **probe** samples every node's unfinished work and MRAI ladder level
  four times per simulated second — the exact signal of Figs 7-9;
* the **profiler** accounts wall-clock time per event-handler category;
* everything exports to ``out/observe_dynamic_mrai/`` as
  ``manifest.json`` + ``metrics.jsonl`` + ``timeseries.csv`` +
  ``aggregates.csv`` + ``profile.txt``.

Run:  python examples/observe_dynamic_mrai.py
"""

from repro import DynamicMRAI, ExperimentSpec, run_experiment, skewed_topology
from repro.obs.session import ObsSession

NODES = 60
FAILURE = 0.20
SAMPLE_INTERVAL = 0.25
OUT_DIR = "out/observe_dynamic_mrai"


def main() -> None:
    topology = skewed_topology(NODES, seed=5)
    spec = ExperimentSpec(mrai=DynamicMRAI(), failure_fraction=FAILURE)
    obs = ObsSession(sample_interval=SAMPLE_INTERVAL, profile=True)

    print(
        f"Failing {FAILURE:.0%} of a {NODES}-node network under dynamic "
        f"MRAI, sampling every {SAMPLE_INTERVAL} s...\n"
    )
    result = run_experiment(topology, spec, seed=1, obs=obs)
    probe = obs.probe

    print(f"convergence delay : {result.convergence_delay:.2f} s (sim)")
    print(f"update messages   : {result.messages_sent}")
    print(
        f"wall clock        : {result.warmup_wall:.2f} s warm-up, "
        f"{result.convergence_wall:.2f} s convergence\n"
    )

    # The dynamic scheme in action: ladder occupancy over time.  Routers
    # step up to slower MRAI levels while their unfinished work is high,
    # then back down as the backlog drains (paper Sec 4.3).
    print("time    p95 work   max work   ladder occupancy (level:count)")
    for agg in probe.aggregates:
        if agg.time < result.failure_time:
            continue
        t = agg.time - result.failure_time
        occupancy = " ".join(
            f"{level}:{count}" for level, count in sorted(agg.mrai_levels.items())
        )
        print(
            f"{t:6.2f}  {agg.work_p95:8.3f}s  {agg.work_max:8.3f}s   {occupancy}"
        )

    # The busiest router's own trajectory.
    peak_node = max(
        probe.node_samples, key=lambda s: s.unfinished_work
    ).node
    work = probe.node_series(peak_node, "unfinished_work")
    level = probe.node_series(peak_node, "mrai_level")
    print(
        f"\nbusiest router: node {peak_node} "
        f"(peak work {max(work):.2f} s, peak ladder level {int(max(level))})"
    )

    print("\n" + obs.profiler.render(top_k=5))

    print()
    for path in obs.export(OUT_DIR, command="examples/observe_dynamic_mrai"):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
