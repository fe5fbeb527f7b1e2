#!/usr/bin/env python3
"""Benchmark trend + span-attribution report.

Reads the ``BENCH_sweep.json`` history that ``tools/bench_sweep.py``
appends to (legacy single-record files are understood too) and prints
the performance trajectory: events/sec and parallel speedup per record,
newest last, so a regression shows up as a trend break rather than a
single mysterious number.  With ``--spans spans.json`` (written by
``repro-bgp sweep --spans-out`` or ``tools/bench_sweep.py`` via the obs
layer) it also prints an *attribution table* for the serial-vs-parallel
gap: how much of the parallel wall clock went to worker simulation,
pool spin-up, task pickling/submit, result collection, store traffic
and observability absorption — the "why is jobs=4 not 4x" answer.

    PYTHONPATH=src python tools/bench_report.py
    PYTHONPATH=src python tools/bench_report.py --spans spans.json
    PYTHONPATH=src python tools/bench_report.py --overhead-check

``--overhead-check`` is the CI gate for the instrumentation layer
itself: it micro-benchmarks the *disabled* ``span()`` fast path and the
monitors-off data-plane hook site and asserts each projected per-trial
cost stays under 2% of the most recent benchmark's serial per-trial
wall time (exit 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

# Allow running as `python tools/bench_report.py` from the repo root
# without PYTHONPATH (CI sets it anyway).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.spans import record_spans, span  # noqa: E402

#: Spans opened per executed trial by the instrumented orchestration
#: stack (topology.build, store.spec_hash, store.get, store.put,
#: trial.execute, trial.warmup, trial.failure, trial.convergence, plus
#: amortized per-run spans) — the multiplier for the overhead gate.
SPANS_PER_TRIAL = 16

#: Data-plane monitor hook sites executed per trial with monitors *off*
#: (one ``network.dataplane`` read + None check per best-route change).
#: Sized to the route-change counts of the largest bench trials, with
#: headroom.
MONITOR_HOOKS_PER_TRIAL = 4096


def load_history(path: Path) -> List[Dict]:
    """Benchmark records at ``path``, oldest first.

    Understands both shapes ``bench_sweep.py`` has ever written: the
    current ``{"kind": "BENCH_sweep", "history": [...]}`` document and
    the legacy single-record file (one record at the top level).
    """
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if not isinstance(data, dict):
        return []
    history = data.get("history")
    if isinstance(history, list):
        return [r for r in history if isinstance(r, dict)]
    if data.get("kind") == "BENCH_sweep":
        return [{k: v for k, v in data.items() if k != "kind"}]
    return []


def _run_row(record: Dict, jobs: int) -> Optional[Dict]:
    for row in record.get("runs", []):
        if row.get("jobs") == jobs:
            return row
    return None


def _workload(record: Dict) -> str:
    return (
        f"{record.get('nodes', '?')}n x {len(record.get('fractions', []))}f "
        f"x {len(record.get('seeds', []))}s"
    )


def render_trend(history: List[Dict], last: int = 10) -> str:
    """The perf trajectory table: one line per record, newest last."""
    if not history:
        return "no benchmark records"
    shown = history[-last:]
    lines = [
        f"bench trend ({len(shown)} of {len(history)} record(s), "
        f"newest last):",
        f"{'recorded':<21} {'workload':<14} {'serial s':>9} "
        f"{'ev/s':>10} {'best speedup':>13} {'cache':>6}",
    ]
    for record in shown:
        stamp = str(record.get("recorded_utc", "?"))[:19]
        serial = _run_row(record, 1)
        serial_wall = serial.get("wall_seconds") if serial else None
        events_s = serial.get("events_per_second") if serial else None
        best = max(
            (
                float(row.get("speedup", 0.0))
                for row in record.get("runs", [])
                if row.get("jobs", 1) != 1
            ),
            default=0.0,
        )
        best_jobs = None
        best_pool = None
        for row in record.get("runs", []):
            if (
                row.get("jobs", 1) != 1
                and float(row.get("speedup", 0.0)) == best
            ):
                best_jobs = row.get("jobs")
                best_pool = row.get("pool")
                break
        hit_rate = (
            f"{best_pool['topology_cache_hit_rate']:>5.0%}"
            if isinstance(best_pool, dict)
            and "topology_cache_hit_rate" in best_pool
            else f"{'—':>5}"
        )
        lines.append(
            f"{stamp:<21} {_workload(record):<14} "
            f"{serial_wall if serial_wall is not None else float('nan'):>9.2f} "
            f"{events_s if events_s is not None else 0:>10,.0f} "
            + (
                f"{best:>10.2f}x @{best_jobs}"
                if best
                else f"{'—':>13}"
            )
            + f" {hit_rate}"
        )
    firsts = [r for r in (history[0], history[-1])]
    a, b = (_run_row(r, 1) for r in firsts)
    if a and b and a.get("events_per_second") and len(history) > 1:
        delta = (
            b["events_per_second"] - a["events_per_second"]
        ) / a["events_per_second"]
        lines.append(
            f"events/s: {a['events_per_second']:,.0f} -> "
            f"{b['events_per_second']:,.0f} ({delta:+.1%} over "
            f"{len(history)} records)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Span attribution
# ---------------------------------------------------------------------------
def load_rollup(path: Path) -> List[Dict]:
    """The rollup table embedded in a spans.json Chrome-trace document."""
    data = json.loads(path.read_text(encoding="utf-8"))
    rollup = data.get("rollup", [])
    if not isinstance(rollup, list):
        raise ValueError(f"{path}: no rollup table (not written by repro?)")
    return rollup


def _total(rollup: Sequence[Dict], *leaves: str, prefix: str = "") -> float:
    """Summed seconds of rollup rows matching leaf name (and path prefix)."""
    out = 0.0
    for row in rollup:
        path = str(row.get("path", ""))
        if prefix and not path.startswith(prefix):
            continue
        if path.rsplit("/", 1)[-1] in leaves:
            out += float(row.get("total_seconds", 0.0))
    return out


def _attrs_from_trace(path: Path, key: str) -> List[float]:
    """Every numeric value of a span attribute across the trace events."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return [
        float(value)
        for event in data.get("traceEvents", [])
        for value in [event.get("args", {}).get(key)]
        if isinstance(value, (int, float))
    ]


def _attr_from_trace(path: Path, key: str) -> Optional[float]:
    """The first numeric value of a span attribute in the trace events."""
    values = _attrs_from_trace(path, key)
    return values[0] if values else None


def render_attribution(path: Path, jobs: Optional[int] = None) -> str:
    """Where the parallel wall clock went, from a spans.json rollup.

    The headline is the gap between the *ideal* parallel wall
    (worker busy time / jobs) and the measured wall; the table
    attributes the difference to the orchestration steps the span layer
    instruments.  Worker busy time exceeding the wall is the
    parallelism actually achieved.
    """
    rollup = load_rollup(path)
    if not rollup:
        return f"{path}: empty rollup (no spans recorded)"
    roots = [r for r in rollup if "/" not in str(r.get("path", ""))]
    wall = max(
        (float(r.get("total_seconds", 0.0)) for r in roots), default=0.0
    )
    worker_busy = _total(rollup, "trial.execute", prefix="workers/")
    inline_busy = 0.0
    if worker_busy == 0.0:
        # Serial run: trial.execute spans live in the parent tree.
        inline_busy = _total(rollup, "trial.execute")
    busy = worker_busy or inline_busy
    if jobs is None:
        jobs_attr = _attr_from_trace(path, "jobs")
        jobs = int(jobs_attr) if jobs_attr else 1
    # A warm pool boots once: later pool.run spans report 0 spin-up, so
    # the sum over the trace is the run's true one-off warm-up cost.
    spinup = sum(_attrs_from_trace(path, "spinup_seconds"))
    submit = _total(rollup, "pool.submit")
    collect = _total(rollup, "pool.collect")
    fold = _total(rollup, "trials.fold", "campaign.fold")
    absorb = _total(rollup, "obs.absorb")
    store = _total(rollup, "store.get", "store.put", "store.spec_hash")
    topo = _total(rollup, "topology.build")
    seeds = _total(rollup, "parallel.derive_seeds")
    # Warm-pool reuse attrs ride each pool.run span (PoolRunStats):
    # spawns total across the trace, reuse peaks once the pool is warm,
    # and the hit rate is aggregated from the per-run hit/miss counts.
    reused_values = _attrs_from_trace(path, "workers_reused")
    spawned_values = _attrs_from_trace(path, "workers_spawned")
    reused = max(reused_values) if reused_values else None
    spawned = sum(spawned_values) if spawned_values else None
    hits = sum(_attrs_from_trace(path, "topology_cache_hits"))
    misses = sum(_attrs_from_trace(path, "topology_cache_misses"))
    hit_rate = hits / (hits + misses) if hits + misses else None
    ideal = busy / jobs if jobs else busy
    # Collection time not covered by concurrent worker compute is
    # scheduling/IPC idle — the pool waiting on pickles and stragglers.
    collect_idle = max(0.0, collect - ideal)

    def pct(x: float) -> str:
        return f"{x / wall:7.1%}" if wall else "      ?"

    lines = [
        f"span attribution ({path}):",
        f"  wall clock            {wall:9.3f} s   (jobs={jobs})",
        f"  worker busy (sum)     {busy:9.3f} s   "
        f"{busy / wall if wall else 0:.2f}x the wall — achieved parallelism",
        f"  ideal wall (busy/{jobs})  {ideal:9.3f} s   "
        f"gap to measured: {wall - ideal:+.3f} s",
        "  gap attribution:",
        f"    pool spin-up        {spinup:9.3f} s  {pct(spinup)}",
        f"    task submit/pickle  {submit:9.3f} s  {pct(submit)}",
        f"    collect idle        {collect_idle:9.3f} s  {pct(collect_idle)}",
        f"    result fold         {fold:9.3f} s  {pct(fold)}",
        f"    obs absorb          {absorb:9.3f} s  {pct(absorb)}",
        f"    store get/put/hash  {store:9.3f} s  {pct(store)}",
        f"    topology build      {topo:9.3f} s  {pct(topo)}",
        f"    seed derivation     {seeds:9.3f} s  {pct(seeds)}",
    ]
    if reused is not None or spawned is not None:
        reuse_bits = [
            f"{int(reused or 0)} worker(s) reused",
            f"{int(spawned or 0)} spawned",
        ]
        if hit_rate is not None:
            reuse_bits.append(f"topology cache hit rate {hit_rate:.0%}")
        lines.append("  warm pool: " + ", ".join(reuse_bits))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Disabled-spans overhead gate
# ---------------------------------------------------------------------------
def disabled_span_cost(iterations: int = 200_000) -> float:
    """Mean seconds per disabled ``span()`` call (enter + exit included)."""
    # Warm-up so the first-call import/bytecode cost is not billed.
    for _ in range(1000):
        with span("warmup"):
            pass
    start = time.perf_counter()
    for _ in range(iterations):
        with span("probe", x=1):
            pass
    return (time.perf_counter() - start) / iterations


def enabled_span_cost(iterations: int = 50_000) -> float:
    """Mean seconds per *recorded* span (for the report, not the gate)."""
    with record_spans():
        start = time.perf_counter()
        for _ in range(iterations):
            with span("probe", x=1):
                pass
        elapsed = time.perf_counter() - start
    return elapsed / iterations


def disabled_monitor_cost(iterations: int = 200_000) -> float:
    """Mean seconds per monitors-off data-plane hook site.

    Replicates the exact hot-path shape in ``BGPSpeaker._reselect``:
    one attribute read on the network object plus a None check.
    """

    class _Net:
        dataplane = None

    net = _Net()
    for _ in range(1000):
        if net.dataplane is not None:  # pragma: no cover - always None
            raise AssertionError
    start = time.perf_counter()
    for _ in range(iterations):
        dataplane = net.dataplane
        if dataplane is not None:  # pragma: no cover - always None
            raise AssertionError
    return (time.perf_counter() - start) / iterations


def overhead_check(
    history: List[Dict], budget: float = 0.02
) -> int:
    """Exit status of the disabled-instrumentation overhead gate.

    Projects ``SPANS_PER_TRIAL`` disabled span() calls and
    ``MONITOR_HOOKS_PER_TRIAL`` monitors-off data-plane hook sites
    against the most recent benchmark record's serial per-trial wall
    time; fails when either projection exceeds ``budget`` (default 2%).
    """
    per_span = disabled_span_cost()
    per_span_on = enabled_span_cost()
    per_hook = disabled_monitor_cost()
    print(
        f"span cost: disabled {per_span * 1e9:,.0f} ns/span, "
        f"enabled {per_span_on * 1e9:,.0f} ns/span"
    )
    print(
        f"data-plane hook cost (monitors off): "
        f"{per_hook * 1e9:,.0f} ns/hook"
    )
    per_trial_wall = None
    for record in reversed(history):
        serial = _run_row(record, 1)
        trials = record.get("trials")
        if serial and trials:
            per_trial_wall = float(serial["wall_seconds"]) / int(trials)
            break
    if per_trial_wall is None:
        # No benchmark history (fresh clone): gate against a very
        # conservative 50 ms/trial floor instead of passing vacuously.
        per_trial_wall = 0.05
        print("no benchmark history; gating against 50 ms/trial floor")
    projected = SPANS_PER_TRIAL * per_span
    share = projected / per_trial_wall
    verdict = "ok" if share < budget else "FAIL"
    print(
        f"overhead gate: {SPANS_PER_TRIAL} spans/trial x "
        f"{per_span * 1e6:.3f} us = {projected * 1e6:.1f} us/trial "
        f"vs {per_trial_wall * 1e3:.1f} ms/trial serial wall "
        f"({share:.3%} of budget {budget:.0%}) — {verdict}"
    )
    hook_projected = MONITOR_HOOKS_PER_TRIAL * per_hook
    hook_share = hook_projected / per_trial_wall
    hook_verdict = "ok" if hook_share < budget else "FAIL"
    print(
        f"monitor gate:  {MONITOR_HOOKS_PER_TRIAL} hooks/trial x "
        f"{per_hook * 1e9:.1f} ns = {hook_projected * 1e6:.1f} us/trial "
        f"vs {per_trial_wall * 1e3:.1f} ms/trial serial wall "
        f"({hook_share:.3%} of budget {budget:.0%}) — {hook_verdict}"
    )
    return 0 if share < budget and hook_share < budget else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench",
        metavar="PATH",
        default="BENCH_sweep.json",
        help="benchmark history file (default: ./BENCH_sweep.json)",
    )
    parser.add_argument(
        "--spans",
        metavar="PATH",
        help="spans.json (Chrome trace with rollup) to attribute",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for the attribution's ideal-wall line "
        "(default: read from the trace's pool.run attributes)",
    )
    parser.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="how many trend rows to print (default 10)",
    )
    parser.add_argument(
        "--overhead-check",
        action="store_true",
        help="micro-benchmark the disabled span() path and the "
        "monitors-off data-plane hook and fail if either projected "
        "per-trial cost exceeds 2%% of serial trial wall",
    )
    args = parser.parse_args(argv)

    history = load_history(Path(args.bench))
    if args.overhead_check:
        return overhead_check(history)
    print(render_trend(history, last=args.last))
    if args.spans:
        spans_path = Path(args.spans)
        if not spans_path.exists():
            print(f"{spans_path}: not found", file=sys.stderr)
            return 2
        print()
        print(render_attribution(spans_path, jobs=args.jobs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
