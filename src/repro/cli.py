"""Command-line interface.

Main subcommands::

    repro-bgp run   --nodes 120 --distribution 70-30 --mrai 0.5 \\
                    --failure 0.05 --queue fifo --seed 1
    repro-bgp sweep --figure fig3 --scale quick --store results/store.db
    repro-bgp campaign run mycampaign.json --jobs 4
    repro-bgp campaign validate mycampaign.json
    repro-bgp trace analyze trace.jsonl
    repro-bgp serve --store results/store.db --jobs 4
    repro-bgp submit mycampaign.json --wait
    repro-bgp store stats results/store.db

``run`` executes one convergence experiment and prints the measurements;
``sweep`` regenerates one of the paper's figures (same harness the
benchmark suite uses) and prints its series table — with ``--store`` the
trials are cached content-addressed and never recomputed; ``campaign``
runs/resumes/validates/inspects/exports declarative sweep grids against
a store (see docs/STORAGE.md and docs/SPECS.md); ``trace analyze``
post-processes a ``--trace-out`` JSONL trace into the causal-chain and
path-exploration report; ``serve``/``submit``/``result``/``queue
status`` are the campaign service — a daemon serving cached results
over HTTP and scheduling cold trials on the warm worker pool (see
docs/SERVICE.md); ``store stats`` inspects a store file directly.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.bgp.mrai import MRAIPolicy
from repro.core.experiment import ExperimentSpec, run_experiment

#: All scheme/topology vocabulary is table data (repro.specs, and the
#: queue disciplines of repro.bgp.queues), so CLI flag choices stay in
#: lockstep with what campaign files accept.
from repro.bgp.queues import QUEUES
from repro.specs import (
    DISTRIBUTIONS,
    MRAI_SCHEMES,
    TOPOLOGY_KINDS,
    build_mrai,
    topology_factory,
)
from repro.topology.graph import Topology


def build_topology(args: argparse.Namespace) -> Topology:
    if getattr(args, "topology_file", None):
        from repro.topology.serialize import load_topology

        return load_topology(args.topology_file)
    block = {"kind": args.topology, "nodes": args.nodes}
    if args.topology == "skewed":
        block["distribution"] = args.distribution
    return topology_factory(block)(args.seed)


def _scheme_from_args(args: argparse.Namespace) -> dict:
    """The declarative scheme dict the run flags describe."""
    kind = args.mrai_scheme
    scheme = {"mrai_scheme": kind}
    if kind == "constant":
        scheme["mrai"] = args.mrai
    elif kind == "degree":
        scheme["mrai_low"] = args.mrai_low
        scheme["mrai_high"] = args.mrai_high
    elif kind in ("dynamic", "theory"):
        scheme["up_th"] = args.up_th
        scheme["down_th"] = args.down_th
    return scheme


def build_mrai_policy(
    args: argparse.Namespace, topology: Optional[Topology] = None
) -> MRAIPolicy:
    """Thin wrapper over the MRAI scheme table (repro.specs)."""
    return build_mrai(_scheme_from_args(args), topology)


def _make_obs_session(
    args: argparse.Namespace, stack: contextlib.ExitStack
):
    """An ObsSession when any observability flag is set, else None.

    The trace sink (when ``--trace-out`` is given) is registered on
    ``stack`` so it is closed — and its final line flushed — before the
    command returns, no matter how the run ends; ``trace analyze`` must
    never see a truncated trailing record.
    """
    trace_out = getattr(args, "trace_out", None)
    spans_out = getattr(args, "spans_out", None)
    dataplane_out = getattr(args, "dataplane_out", None)
    dataplane = getattr(args, "dataplane", False) or bool(dataplane_out)
    wants_obs = (
        getattr(args, "metrics_out", None)
        or getattr(args, "profile", False)
        or getattr(args, "sample_interval", None) is not None
        or trace_out
        or spans_out
        or dataplane
    )
    if not wants_obs:
        return None
    from repro.obs.session import ObsSession
    from repro.sim.trace import JsonlSink

    trace_sink = None
    if trace_out:
        trace_sink = stack.enter_context(JsonlSink(trace_out))
    dataplane_sink = None
    if dataplane_out:
        dataplane_sink = stack.enter_context(JsonlSink(dataplane_out))
    obs = ObsSession(
        sample_interval=args.sample_interval,
        profile=args.profile,
        trace_sink=trace_sink,
        spans=bool(spans_out),
        dataplane=dataplane,
        dataplane_sink=dataplane_sink,
    )
    if obs.span_recorder is not None:
        # Install the recorder for the rest of the command so parent-side
        # spans (seed derivation, store lookups, pool management) record.
        from repro.obs.spans import record_spans

        stack.enter_context(record_spans(obs.span_recorder))
    return obs


def _finish_obs(obs, args: argparse.Namespace, command: str) -> None:
    """Export/print whatever the session collected (shared by run/sweep)."""
    if obs is None:
        return
    if args.metrics_out:
        for path in obs.export(args.metrics_out, command=command):
            print(f"wrote {path}", file=sys.stderr)
    if getattr(args, "trace_out", None):
        print(f"wrote {args.trace_out}", file=sys.stderr)
    if getattr(args, "dataplane_out", None):
        print(f"wrote {args.dataplane_out}", file=sys.stderr)
    spans_out = getattr(args, "spans_out", None)
    if spans_out and obs.span_recorder is not None:
        path = obs.span_recorder.write_chrome_trace(spans_out)
        print(f"wrote {path}", file=sys.stderr)
        print()
        print(obs.span_recorder.render_rollup())
    if args.profile and obs.profiler is not None:
        print()
        print(obs.profiler.render(top_k=10))


def _make_live_monitor(
    args: argparse.Namespace, stack: contextlib.ExitStack, obs, jobs: int
):
    """A LiveMonitor to pass as ``progress=`` when asked, else None.

    ``--progress`` renders the status line; ``--heartbeat PATH`` streams
    one JSON line per tick (either flag alone activates the monitor —
    heartbeat-only runs stay silent on the terminal).
    """
    progress = getattr(args, "progress", False)
    heartbeat = getattr(args, "heartbeat", None)
    if not progress and not heartbeat:
        return None
    from repro.obs.live import LiveMonitor

    monitor = LiveMonitor(
        jobs=jobs,
        session=obs,
        stream=sys.stderr if progress else None,
        heartbeat=heartbeat,
    )
    return stack.enter_context(monitor)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        topology = build_topology(args)
        spec = ExperimentSpec(
            mrai=build_mrai_policy(args, topology),
            queue_discipline=args.queue,
            failure_fraction=args.failure,
            validate=args.validate,
        )
    except (OSError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    print(topology.summary())
    with contextlib.ExitStack() as stack:
        obs = _make_obs_session(args, stack)
        result = run_experiment(topology, spec, seed=args.seed, obs=obs)
        print(f"failure size       : {result.failure_size} routers")
        print(f"warm-up time       : {result.warmup_time:.2f} s (sim)")
        print(f"convergence delay  : {result.convergence_delay:.2f} s (sim)")
        print(f"update messages    : {result.messages_sent}")
        print(f"  withdrawals      : {result.withdrawals_sent}")
        print(f"  stale dropped    : {result.stale_dropped}")
        print(f"route changes      : {result.route_changes}")
        print(f"events executed    : {result.events_executed}")
        print(
            f"wall clock         : {result.warmup_wall:.2f} s warm-up, "
            f"{result.convergence_wall:.2f} s convergence"
        )
        snapshot = obs.trial_snapshots[-1] if obs is not None else {}
        exp = snapshot.get("exploration")
        if exp is not None:
            print(
                f"path exploration   : {exp['paths_explored_total']} distinct "
                f"paths over {exp['pairs_changed']} (node, dest) pairs "
                f"(max {exp['paths_explored_max']})"
            )
            print(
                f"settle times       : p50 {exp['settle']['p50']:.2f} s, "
                f"p95 {exp['settle']['p95']:.2f} s, "
                f"max {exp['settle']['max']:.2f} s"
            )
        dp = result.dataplane
        if dp:
            print(
                f"data-plane impact  : "
                f"{dp['unreachable_seconds_total']:.2f} node-s unreachable "
                f"({dp['blackhole_episodes']} blackhole / "
                f"{dp['loop_episodes']} loop episodes)"
            )
            print(
                f"  per destination  : p50 "
                f"{dp['unreachable_dest_p50']:.2f} s, p95 "
                f"{dp['unreachable_dest_p95']:.2f} s, max "
                f"{dp['unreachable_dest_max']:.2f} s; "
                f"{dp['pairs_never_recovered']} pair(s) never recovered"
            )
        _finish_obs(obs, args, command="run")
    if result.truncated:
        print("WARNING: run truncated at max_convergence_time", file=sys.stderr)
        return 1
    return 0


def _print_pool_summary(jobs: int) -> None:
    """One stderr line on what the warm worker pool amortized.

    Printed after parallel sweeps/campaigns, mirroring the store's
    hit/miss line: how many workers the whole command actually booted
    vs reused, and how often trials found their topology already cached
    worker-side.
    """
    if jobs <= 1:
        return
    from repro.core.parallel import pool_stats

    totals = pool_stats()
    if not totals["runs"]:
        return
    hits = int(totals["cache_hits"])
    looked_up = hits + int(totals["cache_misses"])
    rate = hits / looked_up if looked_up else 1.0
    print(
        f"pool: {int(totals['workers_spawned'])} worker(s) spawned, "
        f"{int(totals['workers_reused'])} reuse(s) over "
        f"{int(totals['runs'])} run(s), topology cache {hits}/{looked_up} "
        f"hits ({rate:.0%}), spin-up {totals['spinup_seconds']:.2f}s",
        file=sys.stderr,
    )


def _warn_truncated(series) -> None:
    """One stderr line when trials behind ``series`` never converged."""
    results = [point.result for s in series for point in s.points]
    cut = sum(r.truncated for r in results)
    if cut:
        print(
            f"WARNING: {cut} of {sum(r.n for r in results)} trial(s) truncated"
            f" at max_convergence_time — their delays are lower bounds",
            file=sys.stderr,
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    # Imported lazily: the figure registry lives with the benchmarks.
    from repro.figures import FIGURES, compute_figure
    from repro.obs.spans import span

    if args.figure not in FIGURES:
        print(
            f"unknown figure {args.figure!r}; choose from "
            f"{', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("--jobs must be a positive integer", file=sys.stderr)
        return 2
    if args.resume and not args.store:
        print("--resume requires --store PATH", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        store = None
        if args.store:
            from pathlib import Path

            from repro.store.result_store import ResultStore

            if args.resume and not Path(args.store).exists():
                print(
                    f"--resume: store {args.store} does not exist "
                    f"(nothing to resume; run without --resume first)",
                    file=sys.stderr,
                )
                return 2
            store = stack.enter_context(ResultStore(args.store))
        obs = _make_obs_session(args, stack)
        monitor = _make_live_monitor(args, stack, obs, jobs=args.jobs)
        with span("sweep.figure", figure=args.figure, scale=args.scale):
            output = compute_figure(
                args.figure,
                scale=args.scale,
                jobs=args.jobs,
                store=store,
                obs=obs,
                progress=monitor,
            )
        if obs is not None:
            obs.finalize(
                kind="repro-sweep",
                command=f"sweep --figure {args.figure} --scale {args.scale}",
                extra={"figure": args.figure, "scale": args.scale},
            )
        if monitor is not None:
            monitor.finish()
        print(output.render())
        _warn_truncated(output.series)
        if args.export:
            from repro.analysis.export import figure_to_files

            for path in figure_to_files(output, args.export):
                print(f"wrote {path}", file=sys.stderr)
        if store is not None:
            looked_up = store.hits + store.misses
            rate = store.hits / looked_up if looked_up else 1.0
            print(
                f"store {args.store}: {store.hits} hits / "
                f"{store.misses} misses ({rate:.0%} cached, "
                f"{len(store)} trials banked)",
                file=sys.stderr,
            )
        _print_pool_summary(args.jobs)
        _finish_obs(obs, args, command=f"sweep --figure {args.figure}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from repro.figures import FIGURES

    for figure_id in sorted(FIGURES):
        print(f"{figure_id:22s} {FIGURES[figure_id].caption}")
    return 0


def _offline_report(args: argparse.Namespace, analyze, render) -> int:
    """Analyze the JSONL file at ``args.path``; print and/or write the report.

    The one body of ``trace analyze`` and ``dataplane report``, which
    differ only in the analysis and its text rendering.
    """
    import json
    from pathlib import Path

    try:
        report = analyze(args.path, t0=args.t0, top=args.top)
    except (OSError, ValueError) as exc:
        print(f"cannot analyze {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(report))
    if args.out:
        Path(args.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Offline causal + convergence analysis of a JSONL trace."""
    from repro.analysis.convergence import analyze_trace_file, render_report

    return _offline_report(args, analyze_trace_file, render_report)


def cmd_dataplane_report(args: argparse.Namespace) -> int:
    """Offline unavailability/loop/blackhole report of a dataplane JSONL."""
    from repro.analysis.dataplane import (
        analyze_dataplane_file,
        render_dataplane_report,
    )

    return _offline_report(
        args, analyze_dataplane_file, render_dataplane_report
    )


def _campaign_verb(verb):
    """Run ``verb(args, campaign, store_path)`` for the file ``args`` names.

    An unreadable or malformed file gets the line ``campaign validate``
    prints for it, a campaign with neither ``--store`` nor its own
    ``store`` one saying so; both exit 2 before the verb runs.
    """

    def cmd(args: argparse.Namespace) -> int:
        from repro.store.campaign import Campaign

        try:
            campaign = Campaign.from_file(args.file)
        except (OSError, ValueError) as exc:
            print(f"{args.file}: INVALID — {exc}", file=sys.stderr)
            return 2
        store_path = args.store or campaign.store_path
        if store_path is None:
            print(
                "no store: pass --store PATH or set 'store' in the "
                "campaign file",
                file=sys.stderr,
            )
            return 2
        return verb(args, campaign, store_path)

    return cmd


def _export_campaign_series(series, directory, name):
    """Write <dir>/<name>.csv and .json; returns the paths."""
    from pathlib import Path

    from repro.analysis.export import save_series

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{name}.csv", directory / f"{name}.json"]
    for path in paths:
        save_series(series, path)
    return paths


@_campaign_verb
def cmd_campaign_run(args: argparse.Namespace, campaign, store_path) -> int:
    """Run (or resume) a campaign: execute missing trials, fold, report."""
    from pathlib import Path

    from repro.analysis.report import format_series_table
    from repro.store.campaign import CampaignError, run_campaign
    from repro.store.result_store import ResultStore

    resuming = args.campaign_command == "resume"
    if resuming and not Path(store_path).exists():
        print(
            f"resume: store {store_path} does not exist (nothing to "
            f"resume; use `campaign run` first)",
            file=sys.stderr,
        )
        return 2
    if args.jobs < 1:
        print("--jobs must be a positive integer", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        obs = _make_obs_session(args, stack)
        monitor = _make_live_monitor(args, stack, obs, jobs=args.jobs)
        store = stack.enter_context(ResultStore(store_path))
        try:
            result = run_campaign(
                campaign, store, jobs=args.jobs, obs=obs, progress=monitor
            )
        except CampaignError as exc:
            print(f"campaign failed: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print(
                f"interrupted — {len(store)} trial(s) already stored in "
                f"{store_path}; continue with `campaign resume {args.file}`",
                file=sys.stderr,
            )
            return 130
        if monitor is not None:
            monitor.finish()
        print(result.summary())
        _warn_truncated(result.series)
        for metric in ("delay", "messages"):
            unit = (
                "convergence delay (s)"
                if metric == "delay"
                else "update messages"
            )
            print()
            print(
                format_series_table(
                    result.series, metric, title=f"[{unit}]"
                )
            )
        if args.export:
            for path in _export_campaign_series(
                result.series, args.export, campaign.name
            ):
                print(f"wrote {path}", file=sys.stderr)
        if obs is not None:
            obs.finalize(
                kind="repro-campaign",
                command=f"campaign {args.campaign_command} {args.file}",
                extra={"campaign": campaign.name, "store": store_path},
            )
        _print_pool_summary(args.jobs)
        _finish_obs(obs, args, command=f"campaign run {args.file}")
    return 0


@_campaign_verb
def cmd_campaign_status(args: argparse.Namespace, campaign, store_path) -> int:
    """Report grid completeness and recorded campaign runs."""
    from pathlib import Path

    from repro.store.campaign import campaign_status
    from repro.store.result_store import ResultStore

    if not Path(store_path).exists():
        print(
            f"campaign {campaign.name}: 0/{campaign.total_trials} trials "
            f"cached (store {store_path} does not exist yet)"
        )
        return 1 if args.check else 0
    with ResultStore(store_path) as store:
        status = campaign_status(campaign, store)
        print(status.render())
    return 0 if status.complete or not args.check else 1


@_campaign_verb
def cmd_campaign_watch(args: argparse.Namespace, campaign, store_path) -> int:
    """Live view of a campaign: per-cell state + latest heartbeat.

    One render by default; ``--follow`` re-renders every ``--interval``
    seconds until the grid completes.  Exit status mirrors completeness
    (0 complete, 1 in flight) so scripts can poll it.
    """
    import time as _time
    from pathlib import Path

    from repro.obs.live import watch_campaign
    from repro.store.result_store import ResultStore

    if not Path(store_path).exists():
        print(
            f"campaign {campaign.name}: store {store_path} does not exist "
            f"yet (0/{campaign.total_trials} trials); start it with "
            f"`campaign run`"
        )
        return 1
    while True:
        with ResultStore(store_path) as store:
            output = watch_campaign(
                campaign, store, heartbeat=args.heartbeat
            )
        print(output)
        complete = output.splitlines()[-1] == "status: complete"
        if complete:
            return 0
        if not args.follow:
            return 1
        _time.sleep(args.interval)
        print()


@_campaign_verb
def cmd_campaign_export(args: argparse.Namespace, campaign, store_path) -> int:
    """Fold a fully-cached campaign from its store; no simulation."""
    from pathlib import Path

    from repro.store.campaign import CampaignError, load_campaign_results
    from repro.store.result_store import ResultStore

    if not Path(store_path).exists():
        # Read-only verb: opening the store would create it.
        print(
            f"cannot export: store {store_path} does not exist",
            file=sys.stderr,
        )
        return 1
    with ResultStore(store_path) as store:
        try:
            series, _results = load_campaign_results(campaign, store)
        except CampaignError as exc:
            print(f"cannot export: {exc}", file=sys.stderr)
            return 1
    for path in _export_campaign_series(series, args.out, campaign.name):
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_campaign_validate(args: argparse.Namespace) -> int:
    """Fast-path check of campaign files: parse, validate, resolve.

    Everything except simulation runs: JSON syntax, the grid shape,
    every scheme dict (per-field messages), the topology block, every
    axis point, and — because topology-dependent schemes are resolved
    against the first seed's topology — that adaptive/theory/inferred-
    policy schemes actually build.  Exit 2 if any file fails.
    """
    from repro.store.campaign import Campaign

    failures = 0
    for path in args.files:
        try:
            campaign = Campaign.from_file(path)
            for label in campaign.schemes:
                campaign.base_spec(label)
        except (OSError, ValueError) as exc:
            print(f"{path}: INVALID — {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"{path}: ok — campaign {campaign.name!r}: "
            f"{len(campaign.schemes)} scheme(s) x {len(campaign.values)} "
            f"value(s) x {len(campaign.seeds)} seed(s) = "
            f"{campaign.total_trials} trials"
        )
    return 2 if failures else 0


def _service_url(args: argparse.Namespace) -> str:
    """The daemon URL: --url, a --ready-file's contents, or the default."""
    if getattr(args, "url", None):
        return args.url
    ready = getattr(args, "ready_file", None)
    if ready:
        import json
        from pathlib import Path

        from repro.service import ServiceError

        try:
            info = json.loads(Path(ready).read_text(encoding="utf-8"))
            return f"http://{info['host']}:{info['port']}"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ServiceError(
                0, f"--ready-file {ready}: {type(exc).__name__}: {exc}"
            ) from exc
    return "http://127.0.0.1:8351"


def _client_verb(verb):
    """Run ``verb(args, client)`` against the daemon ``args`` names.

    A :class:`~repro.service.ServiceError` — the daemon's answer, an
    unreachable daemon or an unusable ``--ready-file`` — is one stderr
    line and exit 1.
    """

    def cmd(args: argparse.Namespace) -> int:
        from repro.service import ServiceClient, ServiceError

        try:
            return verb(args, ServiceClient(_service_url(args)))
        except ServiceError as exc:
            print(str(exc), file=sys.stderr)
            return 1

    return cmd


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service daemon until SIGTERM/SIGINT."""
    from repro.service import CampaignService, ServiceConfig

    config = ServiceConfig(
        store=args.store,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        batch_size=args.batch_size,
        lease_seconds=args.lease,
        drain_timeout=args.drain_timeout,
        ready_file=args.ready_file,
        heartbeat=args.heartbeat,
        quiet=args.quiet,
    )
    return CampaignService(config).run()


@_client_verb
def cmd_submit(args: argparse.Namespace, client) -> int:
    """Submit a campaign grid (or single spec) to a running daemon."""
    import json

    from repro.service import SubmissionReceipt

    try:
        if args.file == "-":
            body = json.load(sys.stdin)
        else:
            with open(args.file, encoding="utf-8") as handle:
                body = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"{args.file}: INVALID — {exc}", file=sys.stderr)
        return 2
    document = client.submit(body)
    document.pop("complete", None)  # derived: the receipt recomputes it
    receipt = SubmissionReceipt(**document)
    print(receipt.summary())
    if args.wait and not receipt.complete:
        status = client.wait(receipt.ticket, timeout=args.timeout)
        print(
            f"ticket {receipt.ticket} done: "
            f"{status['done']}/{status['total']} trials banked"
        )
    return 0


@_client_verb
def cmd_result(args: argparse.Namespace, client) -> int:
    """Fetch and print a completed ticket's folded series."""
    import json

    result = client.result(args.ticket)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(
        f"campaign {result['name']} (axis {result['axis']}, "
        f"{len(result['seeds'])} seed(s))"
    )
    for series in result["series"]:
        for point in series["points"]:
            print(
                f"  {series['label']}: {series['x_name']}={point['x']:g} "
                f"delay={point['delay']:.3f}s "
                f"messages={point['messages']:.1f}"
            )
    return 0


@_client_verb
def cmd_queue_status(args: argparse.Namespace, client) -> int:
    """Queue depth + drain counters of a running daemon."""
    import json

    status = client.queue_status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    queue = status["queue"]
    executor = status["executor"]
    print(
        f"queue: {queue['pending']} pending, {queue['running']} running, "
        f"{queue['done']} done, {queue['failed']} failed"
    )
    eta = status.get("eta_seconds")
    print(
        f"executor {executor['owner']}: {executor['executed']} executed, "
        f"{executor['retried']} retried, "
        f"{executor['failed_terminal']} failed "
        f"(jobs {executor['jobs']}, "
        f"eta {'?' if eta is None else f'{eta:.0f}s'})"
    )
    return 0


def cmd_store_stats(args: argparse.Namespace) -> int:
    """Inspect a store file without opening SQLite by hand."""
    import json
    from pathlib import Path

    from repro.store.result_store import ResultStore

    if not Path(args.store).exists():
        # Read-only verb: opening the store would create it.
        print(f"store {args.store} does not exist", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        stats = store.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    queue = stats["queue"]
    size = stats["db_bytes"]
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            break
        size /= 1024
    print(f"store {stats['path']} (schema v{stats['schema_version']})")
    print(
        f"  trials: {stats['trials']} "
        f"({stats['banked_wall_seconds']:.1f} banked simulation seconds)"
    )
    print(
        f"  campaigns: {stats['campaigns']} manifest(s), "
        f"tickets: {stats['tickets']}"
    )
    print(
        f"  queue: {queue['pending']} pending, {queue['running']} running, "
        f"{queue['done']} done, {queue['failed']} failed"
    )
    print(f"  size: {size:.1f} {unit}")
    return 0


def cmd_topo(args: argparse.Namespace) -> int:
    """Generate a topology, print its summary, optionally save it."""
    try:
        topology = build_topology(args)
    except (OSError, ValueError) as exc:
        print(f"topo: {exc}", file=sys.stderr)
        return 2
    print(topology.summary())
    histogram = sorted(topology.degree_histogram().items())
    print("degree histogram:", ", ".join(f"{d}:{c}" for d, c in histogram))
    if args.save:
        from repro.topology.serialize import save_topology

        save_topology(topology, args.save)
        print(f"wrote {args.save}", file=sys.stderr)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description=(
            "BGP convergence-under-large-failure experiments "
            "(DSN 2006 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_float(text):
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {text!r}"
            )
        return value

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {text!r}"
            )
        return value

    def add_obs_args(parser_):
        parser_.add_argument(
            "--metrics-out",
            metavar="DIR",
            help=(
                "write manifest.json, metrics.jsonl, timeseries.csv and "
                "aggregates.csv into DIR"
            ),
        )
        parser_.add_argument(
            "--sample-interval",
            type=positive_float,
            metavar="S",
            help="sample per-node time series every S simulated seconds",
        )
        parser_.add_argument(
            "--profile",
            action="store_true",
            help="profile the event loop and print a top-10 hotspot table",
        )
        parser_.add_argument(
            "--trace-out",
            metavar="PATH",
            help=(
                "write a causal trace (causality + route_change records) "
                "as JSONL to PATH, for `repro-bgp trace analyze`"
            ),
        )
        parser_.add_argument(
            "--spans-out",
            metavar="PATH",
            help=(
                "record hierarchical runtime spans; write a Chrome "
                "trace-event JSON to PATH (load in Perfetto) and print "
                "the rollup table (see docs/OBSERVABILITY.md)"
            ),
        )
        parser_.add_argument(
            "--dataplane",
            action="store_true",
            help=(
                "monitor the data plane during convergence: forwarding "
                "loops, blackholes, per-destination unreachability "
                "(trajectory-neutral; summary lands on each trial)"
            ),
        )
        parser_.add_argument(
            "--dataplane-out",
            metavar="PATH",
            help=(
                "write per-(node, dest) reachability transitions as "
                "JSONL to PATH, for `repro-bgp dataplane report` "
                "(implies --dataplane)"
            ),
        )

    def add_topology_args(parser_):
        parser_.add_argument("--nodes", type=int, default=120)
        parser_.add_argument(
            "--topology",
            choices=sorted(TOPOLOGY_KINDS),
            default="skewed",
        )
        parser_.add_argument(
            "--distribution", choices=sorted(DISTRIBUTIONS), default="70-30"
        )
        parser_.add_argument(
            "--topology-file",
            metavar="PATH",
            help="load a saved topology JSON instead of generating one",
        )

    def add_report_args(parser_, path_help, top_help, t0_help):
        """The arguments `trace analyze` and `dataplane report` share."""
        parser_.add_argument("path", help=path_help)
        parser_.add_argument(
            "--json",
            action="store_true",
            help="print the report as JSON instead of text",
        )
        parser_.add_argument("--top", type=int, default=5, help=top_help)
        parser_.add_argument("--t0", type=float, default=None, help=t0_help)
        parser_.add_argument(
            "--out", metavar="PATH", help="also write the JSON report to PATH"
        )

    run_p = sub.add_parser("run", help="run one convergence experiment")
    add_topology_args(run_p)
    run_p.add_argument(
        "--mrai-scheme",
        choices=sorted(MRAI_SCHEMES),
        default="constant",
    )
    run_p.add_argument("--mrai", type=float, default=0.5)
    run_p.add_argument("--mrai-low", type=float, default=0.5)
    run_p.add_argument("--mrai-high", type=float, default=2.25)
    run_p.add_argument("--up-th", type=float, default=0.65)
    run_p.add_argument("--down-th", type=float, default=0.05)
    run_p.add_argument(
        "--queue",
        choices=sorted(QUEUES),
        default="fifo",
    )
    run_p.add_argument("--failure", type=float, default=0.05)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--validate", action="store_true")
    add_obs_args(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="regenerate one paper figure")
    sweep_p.add_argument("--figure", required=True)
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for trial execution (default 1 = serial; "
        "results are bit-identical across any N)",
    )
    sweep_p.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    sweep_p.add_argument(
        "--export",
        metavar="DIR",
        help="also write CSV/JSON/text exports into DIR",
    )
    sweep_p.add_argument(
        "--store",
        metavar="PATH",
        help=(
            "content-addressed trial cache (SQLite): stored trials are "
            "folded without re-running, fresh trials are written back"
        ),
    )
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "require --store to already exist (resuming an interrupted "
            "sweep); behavior is otherwise identical — caching is always "
            "incremental"
        ),
    )
    sweep_p.add_argument(
        "--progress",
        action="store_true",
        help="render a live status line (done/cached/failed, hit rate, "
        "worker utilization, ETA) on stderr",
    )
    sweep_p.add_argument(
        "--heartbeat",
        metavar="PATH",
        help="append one JSON telemetry line per completed trial to PATH "
        "(tail it, or point `campaign watch --heartbeat` at it)",
    )
    add_obs_args(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    campaign_p = sub.add_parser(
        "campaign",
        help="persistent, resumable experiment campaigns over a store",
    )
    campaign_sub = campaign_p.add_subparsers(
        dest="campaign_command", required=True
    )

    def add_campaign_common(parser_):
        parser_.add_argument(
            "file", help="campaign definition JSON (see docs/STORAGE.md)"
        )
        parser_.add_argument(
            "--store",
            metavar="PATH",
            help="override the campaign file's store path",
        )

    for name, help_text in (
        ("run", "execute every trial not already in the store"),
        ("resume", "like run, but requires the store to already exist"),
    ):
        runner_p = campaign_sub.add_parser(name, help=help_text)
        add_campaign_common(runner_p)
        runner_p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for missing trials (default 1)",
        )
        runner_p.add_argument(
            "--export",
            metavar="DIR",
            help="also write the folded series as CSV/JSON into DIR",
        )
        runner_p.add_argument(
            "--progress",
            action="store_true",
            help="render a live status line on stderr",
        )
        runner_p.add_argument(
            "--heartbeat",
            metavar="PATH",
            help="append one JSON telemetry line per completed trial to "
            "PATH (`campaign watch --heartbeat PATH` reads it live)",
        )
        add_obs_args(runner_p)
        runner_p.set_defaults(func=cmd_campaign_run)

    validate_p = campaign_sub.add_parser(
        "validate",
        help="check campaign files (schemes, topology, grid) without "
        "running anything",
    )
    validate_p.add_argument(
        "files",
        nargs="+",
        help="campaign definition JSON file(s) to check",
    )
    validate_p.set_defaults(func=cmd_campaign_validate)

    status_p = campaign_sub.add_parser(
        "status", help="grid completeness + recorded runs"
    )
    add_campaign_common(status_p)
    status_p.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every trial is cached",
    )
    status_p.set_defaults(func=cmd_campaign_status)

    watch_p = campaign_sub.add_parser(
        "watch",
        help="live per-cell progress view (optionally following a "
        "heartbeat file written by `campaign run --heartbeat`)",
    )
    add_campaign_common(watch_p)
    watch_p.add_argument(
        "--heartbeat",
        metavar="PATH",
        help="heartbeat JSONL written by a concurrent run --heartbeat; "
        "shows its live utilization/ETA line",
    )
    watch_p.add_argument(
        "--follow",
        action="store_true",
        help="re-render every --interval seconds until the grid completes",
    )
    watch_p.add_argument(
        "--interval",
        type=positive_float,
        default=2.0,
        metavar="S",
        help="refresh period for --follow (default 2s)",
    )
    watch_p.set_defaults(func=cmd_campaign_watch)

    export_p = campaign_sub.add_parser(
        "export",
        help="fold a fully-cached campaign from the store (no simulation)",
    )
    add_campaign_common(export_p)
    export_p.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="directory for <name>.csv and <name>.json",
    )
    export_p.set_defaults(func=cmd_campaign_export)

    def add_client_args(parser_):
        parser_.add_argument(
            "--url",
            metavar="URL",
            help="service base URL (default http://127.0.0.1:8351)",
        )
        parser_.add_argument(
            "--ready-file",
            metavar="PATH",
            help="read host/port from a `serve --ready-file` JSON instead "
            "of --url",
        )

    serve_p = sub.add_parser(
        "serve",
        help="run the campaign service daemon (HTTP API + queue executor)",
    )
    serve_p.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="store to serve from and bank results into (SQLite store "
        "path)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port",
        type=int,
        default=8351,
        help="TCP port (0 = pick a free one; see --ready-file)",
    )
    serve_p.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="warm-pool workers for cold trials (prewarmed at boot)",
    )
    serve_p.add_argument(
        "--batch-size",
        type=positive_int,
        default=16,
        metavar="N",
        help="max queue tasks leased per executor batch (default 16)",
    )
    serve_p.add_argument(
        "--lease",
        type=positive_float,
        default=120.0,
        metavar="S",
        help="queue lease duration in seconds (default 120; crashed "
        "executors' tasks re-dispatch after this)",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=positive_float,
        default=15.0,
        metavar="S",
        help="shutdown budget for finishing the in-flight batch "
        "(default 15s)",
    )
    serve_p.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write {host, port, pid, store} JSON once accepting "
        "(lets scripts use --port 0 without racing the boot)",
    )
    serve_p.add_argument(
        "--heartbeat",
        metavar="PATH",
        help="append one JSON telemetry line per completed trial to PATH",
    )
    serve_p.add_argument(
        "--quiet", action="store_true", help="no stderr logging"
    )
    serve_p.set_defaults(func=cmd_serve)

    submit_p = sub.add_parser(
        "submit",
        help="submit a campaign grid or single spec to a running daemon",
    )
    submit_p.add_argument(
        "file",
        help="campaign JSON, single-spec JSON ({topology, scheme, seed}), "
        "or '-' for stdin",
    )
    add_client_args(submit_p)
    submit_p.add_argument(
        "--wait",
        action="store_true",
        help="poll until the ticket completes (exit 1 on failure/timeout)",
    )
    submit_p.add_argument(
        "--timeout",
        type=positive_float,
        default=600.0,
        metavar="S",
        help="--wait deadline in seconds (default 600)",
    )
    submit_p.set_defaults(func=cmd_submit)

    result_p = sub.add_parser(
        "result", help="fetch a completed ticket's folded series"
    )
    result_p.add_argument("ticket", help="ticket id from `submit`")
    add_client_args(result_p)
    result_p.add_argument(
        "--json", action="store_true", help="print the full JSON payload"
    )
    result_p.set_defaults(func=cmd_result)

    queue_p = sub.add_parser(
        "queue", help="inspect the service work queue"
    )
    queue_sub = queue_p.add_subparsers(dest="queue_command", required=True)
    queue_status_p = queue_sub.add_parser(
        "status", help="queue depth per state + executor counters + ETA"
    )
    add_client_args(queue_status_p)
    queue_status_p.add_argument(
        "--json", action="store_true", help="print the full JSON payload"
    )
    queue_status_p.set_defaults(func=cmd_queue_status)

    store_p = sub.add_parser(
        "store", help="inspect a trial store file directly"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_stats_p = store_sub.add_parser(
        "stats",
        help="trial count, banked wall-seconds, manifests, queue, DB size",
    )
    store_stats_p.add_argument("store", help="store path (SQLite file)")
    store_stats_p.add_argument(
        "--json", action="store_true", help="print the full JSON payload"
    )
    store_stats_p.set_defaults(func=cmd_store_stats)

    list_p = sub.add_parser(
        "list", help="list reproducible figures and ablations"
    )
    list_p.set_defaults(func=cmd_list)

    trace_p = sub.add_parser(
        "trace", help="offline analysis of recorded traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    analyze_p = trace_sub.add_parser(
        "analyze",
        help="causal-chain + path-exploration report from a JSONL trace",
    )
    add_report_args(
        analyze_p,
        path_help="trace file written by --trace-out",
        top_help=(
            "how many amplifiers/chains/destinations to list (default 5)"
        ),
        t0_help=(
            "failure time to measure settling from (default: the first "
            "failure-injection record in the trace)"
        ),
    )
    analyze_p.set_defaults(func=cmd_trace_analyze)

    dataplane_p = sub.add_parser(
        "dataplane", help="offline analysis of data-plane impact records"
    )
    dataplane_sub = dataplane_p.add_subparsers(
        dest="dataplane_command", required=True
    )
    report_p = dataplane_sub.add_parser(
        "report",
        help=(
            "unavailability / loop / blackhole report from a JSONL file "
            "written by --dataplane-out"
        ),
    )
    add_report_args(
        report_p,
        path_help="data-plane file written by --dataplane-out",
        top_help="how many worst destinations to list per trial (default 5)",
        t0_help=(
            "observation-window start override (default: each trial's "
            "recorded failure time)"
        ),
    )
    report_p.set_defaults(func=cmd_dataplane_report)

    topo_p = sub.add_parser(
        "topo", help="generate (and optionally save) a topology"
    )
    add_topology_args(topo_p)
    topo_p.add_argument("--seed", type=int, default=0)
    topo_p.add_argument(
        "--save", metavar="PATH", help="write the topology as JSON"
    )
    topo_p.set_defaults(func=cmd_topo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
