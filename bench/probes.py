"""Per-layer probes: small timed loops over single public functions.

A probe calls one function of one layer in a loop, on the workload's
own inputs (its topology, spec, keys), and reports the median cost per
call over a few rounds.  Probes run once per traced run, after the
traced repeat, so they never share the clock with a workload.

The kernel probes mirror ``benchmarks/test_micro_simulator.py``; the
others cover layers that had no number at all (store, queue, specs).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict

from repro.bgp.network import BGPNetwork
from repro.core.experiment import TrialResult, build_scenario
from repro.obs.spans import active_recorder, span
from repro.sim.engine import Simulator
from repro.sim.timers import Jitter, Timer
from repro.specs import build_spec
from repro.store import ResultStore, spec_fingerprint, spec_hash, topology_digest

from workloads import ProbeInputs, median_seconds

ROUNDS = 5


def per_call(fn: Callable[[], Any], calls: int) -> float:
    """Median seconds per operation of ``fn``, which performs ``calls``.

    ``fn`` loops itself, so loop overhead is part of the operation the
    way it is for a real caller.
    """
    return median_seconds(fn, ROUNDS) / calls


def sim_probes() -> Dict[str, float]:
    def schedule_run() -> None:
        sim = Simulator()
        remaining = [10_000]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()

    def cancel() -> None:
        sim = Simulator()
        for i in range(5_000):
            sim.cancel(sim.schedule(1.0 + i, _nothing))
        sim.run()

    def timer_restart() -> None:
        sim = Simulator(seed=3)
        timer = Timer(sim, _nothing, jitter=Jitter(), rng=sim.rng.get("j"))
        for _ in range(2_000):
            timer.start(1.0)
        timer.stop()
        sim.run()

    return {
        "sim.schedule_run_us_per_event": per_call(schedule_run, 10_000) * 1e6,
        "sim.cancel_us_per_op": per_call(cancel, 5_000) * 1e6,
        "sim.timer_restart_us_per_op": per_call(timer_restart, 2_000) * 1e6,
    }


def _nothing() -> None:
    pass


def build_probes(inputs: ProbeInputs) -> Dict[str, float]:
    """Construction costs: topology, failure scenario, network, spec."""
    config = inputs.spec.to_bgp_config()
    return {
        "topology.build_ms": per_call(
            lambda: inputs.topology_factory(inputs.seed), 1
        )
        * 1e3,
        "failures.scenario_ms": per_call(
            lambda: build_scenario(inputs.topology, inputs.spec, inputs.seed), 1
        )
        * 1e3,
        "bgp.network_build_ms": per_call(
            lambda: BGPNetwork(inputs.topology, config, seed=inputs.seed), 1
        )
        * 1e3,
        "specs.build_spec_us": per_call(
            lambda: [build_spec(inputs.scheme) for _ in range(100)], 100
        )
        * 1e6,
    }


def store_probes(
    inputs: ProbeInputs, trial: TrialResult, tmp: Path
) -> Dict[str, float]:
    """Hashing, trial rows and the work queue, on a scratch store.

    Keys are the workload's real content key with a varying tail, so
    rows have the real size; every round works on fresh keys.
    """
    spec, topology, seed = inputs.spec, inputs.topology, inputs.seed
    key = spec_hash(spec, topology, seed)
    fingerprint = spec_fingerprint(spec, topology, seed)
    payload = {
        "topology": inputs.topology_block,
        "scheme": spec.to_dict(),
        "seed": seed,
    }
    ops = 50
    rounds = iter(range(10_000))

    def fresh_keys() -> list:
        r = next(rounds)
        return [f"{key[:-8]}{r:04x}{i:04x}" for i in range(ops)]

    out = {
        "store.spec_hash_us": per_call(
            lambda: [spec_hash(spec, topology, seed) for _ in range(20)], 20
        )
        * 1e6,
        "store.topology_digest_us": per_call(
            lambda: [topology_digest(topology) for _ in range(20)], 20
        )
        * 1e6,
    }
    with ResultStore(tmp / "probe.db") as store:
        stored: list = []

        def put() -> None:
            stored[:] = fresh_keys()
            for k in stored:
                store.put(k, trial, fingerprint=fingerprint)

        out["store.put_us"] = per_call(put, ops) * 1e6
        out["store.get_hit_us"] = (
            per_call(lambda: [store.get(k) for k in stored], ops) * 1e6
        )
        missing = [f"{k[:-1]}x" for k in stored]
        out["store.get_miss_us"] = (
            per_call(lambda: [store.get(k) for k in missing], ops) * 1e6
        )

        # Queue round trip: each round enqueues, leases and completes
        # its own 50 tasks, so every lease finds exactly those pending.
        enqueue, lease, complete = [], [], []
        for _ in range(ROUNDS):
            keys = fresh_keys()
            t0 = time.perf_counter()
            for k in keys:
                store.enqueue(k, payload, ticket="probe")
            t1 = time.perf_counter()
            tasks = store.lease_tasks("probe", ops, 60.0)
            t2 = time.perf_counter()
            for task in tasks:
                store.complete_task(task.id)
            t3 = time.perf_counter()
            if len(tasks) != ops:
                raise RuntimeError(
                    f"queue probe leased {len(tasks)} of {ops} tasks"
                )
            enqueue.append((t1 - t0) / ops)
            lease.append((t2 - t1) / ops)
            complete.append((t3 - t2) / ops)
        out["store.enqueue_us_per_task"] = statistics.median(enqueue) * 1e6
        out["store.lease_us_per_task"] = statistics.median(lease) * 1e6
        out["store.complete_us_per_task"] = statistics.median(complete) * 1e6
    return out


def span_disabled_ns() -> float:
    """Cost of one ``with span(...)`` while no recorder is installed."""
    if active_recorder() is not None:
        raise RuntimeError("span_disabled_ns needs span recording off")

    def loop() -> None:
        for _ in range(100_000):
            with span("bench.probe"):
                pass

    return per_call(loop, 100_000) * 1e9


def run_probes(
    inputs: ProbeInputs, trial: TrialResult, tmp: Path
) -> Dict[str, float]:
    out = sim_probes()
    out.update(build_probes(inputs))
    out.update(store_probes(inputs, trial, tmp))
    out["obs.span_disabled_ns"] = span_disabled_ns()
    return out
