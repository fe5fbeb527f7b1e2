#!/usr/bin/env python3
"""Watch a convergence happen: queue backlog and invalid routes over time.

The paper's schemes work by reducing *processing backlog* and *invalid
transient routes* during reconvergence.  This example attaches a sampling
probe to the network, fails 15% of it, and renders the resulting time
series as sparklines — the mechanism behind Figs 10-12 made visible:

* under plain FIFO at a fast MRAI, queues at high-degree nodes grow into
  the thousands and invalid routes circulate for tens of seconds;
* under per-destination batching the same failure drains in a fraction of
  the time.

Run:  python examples/convergence_timeline.py
"""

from typing import List

from repro import SkewedDegreeSpec, skewed_topology
from repro.bgp.config import BGPConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.failures.scenarios import geographic_failure
from repro.obs.probes import NetworkProbe

NODES = 60
FAILURE = 0.15
SAMPLE_INTERVAL = 0.25


def sparkline(values: List[float], width: int = 60) -> str:
    """Render a series as a one-line unicode sparkline."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    if len(values) > width:
        # Downsample by taking the max of each bucket (peaks matter here).
        bucket = len(values) / width
        values = [
            max(values[int(i * bucket) : max(int(i * bucket) + 1, int((i + 1) * bucket))])
            for i in range(width)
        ]
    top = max(values) or 1.0
    return "".join(blocks[min(8, int(v / top * 8))] for v in values)


def run_with_probe(queue_discipline: str):
    topology = skewed_topology(NODES, SkewedDegreeSpec.paper_70_30(), seed=5)
    config = BGPConfig(
        mrai_policy=ConstantMRAI(0.5), queue_discipline=queue_discipline
    )
    network = BGPNetwork(topology, config, seed=1)
    network.start()
    network.run_until_quiet(max_time=3600)
    probe = NetworkProbe(network, interval=SAMPLE_INTERVAL)
    probe.start()
    scenario = geographic_failure(topology, FAILURE)
    t0 = network.fail_nodes(scenario.nodes)
    network.run_until_quiet(max_time=3600)
    return probe, network.last_activity - t0


def show(label: str, probe: NetworkProbe, delay: float) -> None:
    samples = probe.samples
    queued = samples.aggregate_series("total_queue_depth")
    invalid = samples.aggregate_series("invalid_routes")
    span = samples.aggregates[-1].time - samples.aggregates[0].time
    print(f"=== {label} ===")
    print(f"  convergence delay : {delay:6.2f} s")
    print(f"  peak queued msgs  : {int(samples.peak('total_queue_depth')):6d}")
    print(
        f"  peak invalid routes {int(samples.peak('invalid_routes')):6d} "
        f"(transient routes through dead ASes)"
    )
    print(f"  queue backlog  |{sparkline(queued)}|")
    print(f"  invalid routes |{sparkline(invalid)}|")
    print(f"                  ^ {span:.0f} s of simulated time")
    print()


def main() -> None:
    print(
        f"Failing {FAILURE:.0%} of a {NODES}-node 70-30 network "
        f"(MRAI 0.5 s), sampled every {SAMPLE_INTERVAL} s\n"
    )
    for label, discipline in (
        ("plain FIFO processing", "fifo"),
        ("per-destination batching", "dest_batch"),
        ("withdrawal-first batching", "dest_batch_wf"),
    ):
        probe, delay = run_with_probe(discipline)
        show(label, probe, delay)


if __name__ == "__main__":
    main()
