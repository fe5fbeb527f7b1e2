#!/usr/bin/env python3
"""One benchmark for the whole pipeline.

    python3 bench/run.py                       # all four workloads
    python3 bench/run.py --traced --out bench/out/run.json
    python3 bench/run.py --workload fifo_storm --seed 7 --seconds 20 --trace 0

Each workload runs in a process of its own, one at a time, so set-up
time and peak memory are per workload.  With one ``--workload`` this
process is that process; without, it starts one child per workload (two
with ``--traced``: an untraced run for the end-to-end metrics, then a
traced one for the per-layer metrics and the layer table).

A run prints one line per metric as ``workload metric value unit``,
checks the program's outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones
with ``--trace 1``.  It exits non-zero when a check fails.  See
``bench/README.md`` for what every name means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("fifo_storm", "batch_dynamic", "campaign_grid", "service_loop")

#: Set-up is run this many times; ``setup_s`` reports the median.
SETUP_ROUNDS = 3
#: Tolerance of "layer-table rows sum to the traced wall".
TABLE_TOLERANCE = 0.02


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES, help="run only this workload"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="length of the timed region (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override the repeat count"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, one repeat (tests)"
    )
    parser.add_argument("--out", metavar="FILE", help="write the full JSON record")
    parser.add_argument(
        "--expected",
        metavar="FILE",
        default=str(BENCH / "expected.json"),
        help="pinned simulated statistics (default: bench/expected.json)",
    )
    parser.add_argument(
        "--pin",
        action="store_true",
        help="write this run's simulated statistics to --expected",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------
def load_manifest() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and n of a metric's per-repeat values."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def sim_digest(trials) -> str:
    """Digest of the simulated statistics of a repeat's trials, in order."""
    payload = json.dumps(
        [
            [t.convergence_delay, t.messages_sent, t.events_executed]
            for t in trials
        ]
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def child_pids() -> List[int]:
    """Live processes whose parent is this one."""
    me = os.getpid()
    try:
        entries = [e for e in os.listdir("/proc") if e.isdigit()]
    except OSError:
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]
    found = []
    for entry in entries:
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def host_record() -> Dict[str, Any]:
    from repro.obs.manifest import host_fingerprint

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * nproc:
        print(
            f"warning: 1-min load average {load:.2f} exceeds half of "
            f"{nproc} cores; timings will be noisy",
            file=sys.stderr,
        )
    return {**host_fingerprint(), "nproc": nproc, "load_1min": load}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def measure(args: argparse.Namespace, manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload here; returns its record (see ``--out``)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT / 'src' / 'repro'}: the program's source is missing")
    sys.path.insert(0, str(ROOT / "src"))
    # Spawned pool workers (REPRO_POOL_START_METHOD=spawn) import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    from repro.core.parallel import shutdown_worker_pool
    from repro.obs.session import ObsSession
    from repro.obs.spans import record_spans, span

    import layers
    import probes
    from workloads import WORKLOADS, RunConfig

    import_s = time.perf_counter() - _PROCESS_START
    host = host_record()
    workload = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    traced = bool(args.trace)
    if args.repeats is not None:
        repeats = args.repeats
    else:
        repeats = 1 if args.smoke else workload.repeats_for(seconds)

    OUT.mkdir(exist_ok=True)
    failures: List[str] = []
    layer_values: Dict[str, float] = {}
    table: List[str] = []
    state = None
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=OUT) as tmp:
        run = RunConfig(
            seed=args.seed, smoke=args.smoke, seconds=seconds, tmp=Path(tmp)
        )
        try:
            # The imports happen once per process; the workload's own
            # set-up is repeated.  (Repeating the imports in child
            # interpreters would put their memory into RUSAGE_CHILDREN.)
            setup_walls = []
            for round_ in range(SETUP_ROUNDS):
                if state is not None:
                    workload.teardown(state)
                    state = None
                scratch = Path(tmp) / f"setup-{round_}"
                scratch.mkdir()
                start = time.perf_counter()
                state = workload.setup(replace(run, tmp=scratch))
                setup_walls.append(time.perf_counter() - start)

            if workload.warmup and not args.smoke:
                workload.repeat(state, None)  # discarded
            measured = [workload.repeat(state, None) for _ in range(repeats)]
            timed = list(measured)

            if traced:
                obs = ObsSession(profile=True, spans=True)
                root = f"bench.{workload.name}.traced_repeat"
                with record_spans(obs.span_recorder) as recorder:
                    start = time.perf_counter()
                    with span(root):
                        traced_rep = workload.repeat(state, obs)
                    traced_wall = time.perf_counter() - start
                measured.append(traced_rep)
                layer_values = layers.layer_metrics(
                    workload.name,
                    traced_rep,
                    obs.profiler,
                    recorder,
                    untraced_wall=statistics.median(rep.wall_s for rep in timed),
                )
                table, self_sum = layers.layer_table(recorder, root, obs.profiler)
                if abs(self_sum - traced_wall) > TABLE_TOLERANCE * traced_wall:
                    failures.append(
                        f"layer table sums to {self_sum:.3f} s, traced wall "
                        f"is {traced_wall:.3f} s"
                    )
                trace_path = recorder.write_chrome_trace(
                    OUT / f"trace_{workload.name}.json"
                )
                table.insert(
                    0,
                    f"{workload.name}: layer table of the traced repeat "
                    f"({traced_wall:.3f} s wall; spans in "
                    f"{trace_path.relative_to(ROOT)})",
                )
                layer_values.update(
                    probes.run_probes(
                        workload.probe_inputs(state),
                        traced_rep.trials[0],
                        Path(tmp),
                    )
                )
        finally:
            if state is not None:
                workload.teardown(state)
            shutdown_worker_pool()

    # Output checks.  Attempted operations are the measured repeats'
    # trials, campaign passes and HTTP requests, plus the three checks
    # made here (and the table sum above when traced).
    orphans = child_pids()
    if orphans:
        failures.append(f"orphaned child processes: {orphans}")
    trials = [t for rep in measured for t in rep.trials]
    truncated = sum(1 for t in trials if t.truncated)
    if truncated:
        failures.append(f"{truncated} trial(s) truncated before converging")
    for rep in measured:
        failures += rep.failures
    digests = [sim_digest(rep.trials) for rep in measured]
    if len(set(digests)) != 1:
        failures.append(
            f"simulated statistics differ between repeats: {sorted(set(digests))}"
        )
    first = timed[0].trials
    pin = {
        "digest": digests[0],
        "trials": len(first),
        "events_executed": sum(t.events_executed for t in first),
        "updates_sent": sum(t.messages_sent for t in first),
    }
    failures += check_pin(args, workload.name, pin)
    attempted = (
        len(trials) + sum(rep.operations for rep in measured) + 3 + traced
    )

    values: Dict[str, Dict[str, Any]] = {
        "setup_s": summarize([import_s + wall for wall in setup_walls]),
        "peak_rss_mb": summarize([peak_rss_mb()]),
        "wall_s": summarize([rep.wall_s for rep in timed]),
        "events_per_s": summarize(
            [
                sum(t.events_executed for t in rep.trials) / rep.cold_wall_s
                for rep in timed
            ]
        ),
        "trials_per_s": summarize(
            [len(rep.trials) / rep.cold_wall_s for rep in timed]
        ),
    }
    for name in timed[0].extra:
        values[name] = summarize([rep.extra[name] for rep in timed])
    for name, value in layer_values.items():
        values[name] = summarize([value])

    units = {
        m["name"]: m["unit"]
        for m in manifest["end_to_end"] + manifest["per_layer"]
    }
    unknown = sorted(set(values) - set(units))
    if unknown:
        failures.append(f"metrics not declared in BENCHMARK.json: {unknown}")
    failed = min(attempted, len(failures))
    values["error_rate"] = summarize([failed / attempted])
    units["error_rate"] = "ratio"
    if traced:
        # A traced run reports the per-layer side only.
        end_to_end = {m["name"] for m in manifest["end_to_end"]}
        values = {n: r for n, r in values.items() if n not in end_to_end}
    metrics = {
        name: {**record, "unit": units[name]}
        for name, record in values.items()
        if name in units
    }
    for name, record in metrics.items():
        print(f"{workload.name} {name} {record['value']:.6g} {record['unit']}")
    if traced:
        # A layer the workload does not exercise reads 0 (not printed).
        for m in manifest["per_layer"]:
            metrics.setdefault(
                m["name"], {**summarize([0.0]), "unit": m["unit"]}
            )
        print("\n" + "\n".join(table))
    for line in failures:
        print(f"{workload.name} FAILED: {line}", file=sys.stderr)

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "repeats": repeats,
        "traced": traced,
        "seconds": seconds,
        "host": host,
        "pin": pin,
        "failures": failures,
        "metrics": metrics,
    }


def check_pin(
    args: argparse.Namespace, workload: str, pin: Dict[str, Any]
) -> List[str]:
    """Compare against (or with ``--pin`` write) the pinned statistics.

    Pins exist for one seed and for the full and smoke sizes; any other
    ``--seed`` skips this check and keeps every other one.
    """
    path = Path(args.expected)
    expected = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"seed": args.seed, "full": {}, "smoke": {}}
    )
    sizes = "smoke" if args.smoke else "full"
    if args.pin:
        if expected["seed"] != args.seed:
            expected = {"seed": args.seed, "full": {}, "smoke": {}}
        expected[sizes][workload] = pin
        path.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
        return []
    if expected["seed"] != args.seed:
        return []
    want = expected[sizes].get(workload)
    if want != pin:
        return [f"simulated statistics {pin} differ from the pinned {want}"]
    return []


# ---------------------------------------------------------------------------
# All workloads, one child process each
# ---------------------------------------------------------------------------
def run_children(args: argparse.Namespace) -> Dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                part = Path(tmp) / f"{name}-{trace}.json"
                command = [
                    sys.executable, str(BENCH / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--trace", str(trace),
                    "--expected", args.expected,
                    "--out", str(part),
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.repeats is not None:
                    command += ["--repeats", str(args.repeats)]
                if args.smoke:
                    command.append("--smoke")
                if args.pin:
                    command.append("--pin")
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                # Drop the child's closing driver record; the --out file
                # carries the same numbers with quartiles.
                sys.stdout.write(
                    "".join(
                        line
                        for line in child.stdout.splitlines(keepends=True)
                        if not line.startswith('{"correct"')
                    )
                )
                sys.stdout.flush()
                if not part.exists():
                    records[name] = merge(
                        records.get(name),
                        {
                            "correct": False, "attempted": 1, "failed": 1,
                            "metrics": {},
                            "failures": [f"exit code {child.returncode}, no record"],
                        },
                    )
                    continue
                record = json.loads(part.read_text(encoding="utf-8"))
                records[name] = merge(records.get(name), record["workloads"][name])
    return records


def merge(
    untraced: Optional[Dict[str, Any]], record: Dict[str, Any]
) -> Dict[str, Any]:
    """Fold a workload's traced record into its untraced one.

    A metric both runs report (the workload-specific user-visible ones)
    keeps the untraced run's value: it has more repeats behind it.
    """
    if untraced is None:
        return record
    return {
        **record,
        **untraced,
        "correct": untraced["correct"] and record["correct"],
        "attempted": untraced["attempted"] + record["attempted"],
        "failed": untraced["failed"] + record["failed"],
        "failures": untraced["failures"] + record["failures"],
        "traced": True,
        "metrics": {**record["metrics"], **untraced["metrics"]},
    }


def document(args: argparse.Namespace, records: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": 1,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "smoke": args.smoke,
        "workloads": records,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    manifest = load_manifest()
    if args.workload is not None:
        # The driver's form: this process is the workload's process.
        record = measure(args, manifest)
        records = {args.workload: record}
    else:
        records = run_children(args)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(document(args, records), indent=1) + "\n", encoding="utf-8"
        )
    ok = all(r["correct"] for r in records.values())
    if args.workload is not None:
        declared = manifest["per_layer" if args.trace else "end_to_end"]
        print(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": {
                        m["name"]: {
                            "value": record["metrics"][m["name"]]["value"],
                            "unit": m["unit"],
                        }
                        for m in declared
                    },
                }
            )
        )
    else:
        print(
            f"\n{len(records)} workload(s): "
            + ("all checks passed" if ok else "CHECKS FAILED")
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
