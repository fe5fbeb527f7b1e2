#!/usr/bin/env python3
"""Parallel trial execution end to end: a Fig-3 MRAI sweep with --jobs.

Runs the same small MRAI campaign (convergence delay vs the MRAI value —
the paper's Fig 3 shape) twice, without a store: serially, then fanned
out over worker processes.  Prints both series side by side, the
measured speedup, and confirms the determinism contract — the parallel
series is bit-identical to the serial one on the same seeds.

Run:  python examples/parallel_sweep.py [--jobs N]
"""

import argparse
import os
import time

from repro.store import Campaign, run_campaign

NODES = 30
MRAI_GRID = (0.5, 1.25, 2.25)
SEEDS = (1, 2)
FAILURE = 0.1

CAMPAIGN = Campaign.from_dict(
    {
        "name": "delay-vs-mrai",
        "topology": {"kind": "skewed", "nodes": NODES},
        "schemes": {"delay-vs-mrai": {"failure_fraction": FAILURE}},
        "axis": {"name": "mrai", "values": list(MRAI_GRID)},
        "seeds": list(SEEDS),
    }
)


def run(jobs: int):
    start = time.perf_counter()
    [series] = run_campaign(CAMPAIGN, jobs=jobs).series
    return series, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="worker processes for the parallel pass (default: up to 4)",
    )
    args = parser.parse_args()

    trials = len(MRAI_GRID) * len(SEEDS)
    print(
        f"MRAI sweep: {NODES} nodes, {FAILURE:.0%} failure, "
        f"grid {MRAI_GRID}, {len(SEEDS)} seeds ({trials} trials)\n"
    )

    serial, serial_wall = run(jobs=1)
    parallel, parallel_wall = run(jobs=args.jobs)

    print(f"{'MRAI (s)':>9} {'delay jobs=1':>13} {'delay jobs=' + str(args.jobs):>13}")
    for p_serial, p_par in zip(serial.points, parallel.points):
        print(f"{p_serial.x:>9.2f} {p_serial.delay:>11.2f} s {p_par.delay:>11.2f} s")

    identical = (
        serial.delays == parallel.delays
        and serial.message_counts == parallel.message_counts
    )
    speedup = serial_wall / parallel_wall if parallel_wall else 0.0
    print(
        f"\nwall: {serial_wall:.2f} s serial vs {parallel_wall:.2f} s "
        f"at jobs={args.jobs}  ->  {speedup:.2f}x speedup"
    )
    print(
        "bit-identical across backends: "
        + ("yes" if identical else "NO - determinism regression!")
    )
    if not identical:
        raise SystemExit(1)
    print(
        "\n(Process fan-out only wins with spare cores; on 1-2 core "
        "machines expect ~1x or below.)"
    )


if __name__ == "__main__":
    main()
