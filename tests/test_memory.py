"""Memory behaviour of the simulator core.

Four things are pinned here, each with its measured value printed (run
with ``-s`` to see them; CI does, once per Python version):

* a finished trial frees itself by reference counting — the cycle
  collector finds nothing to reclaim after ``run_experiment``;
* nothing per-simulation outlives the simulation — live traced memory
  does not grow from trial to trial, whatever the topology;
* resident bytes per stored route stay under a budget — at quiescence
  and at the peak of warm-up and of convergence — with AS paths chains
  of cells shared between RIBs by construction (an export is one cell in
  front of the path it extends, no intern table), pending MRAI work one
  flag per destination, and the tables of failed routers and torn-down
  sessions released;
* importing the serial trial path loads no HTTP/TLS, SQLite or
  multiprocessing code, and importing the trial itself loads none of
  the batch, pool, store, service or monitoring modules.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.config import BGPConfig
from repro.bgp.damping import DampingConfig
from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.bgp.routes import Route, key_tail, path_length
from repro.core.dynamic_mrai import DynamicMRAI
from repro.core.experiment import ExperimentSpec, build_scenario, run_experiment
from repro.failures.scenarios import geographic_failure
from repro.topology.skewed import skewed_topology
from tests.conftest import (
    advertised,
    converged_network,
    rib_in_route_count,
    total_loc_rib_routes,
)

SPECS = {
    "fifo": ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2),
    "dest_batch": ExperimentSpec(
        mrai=ConstantMRAI(0.5), queue_discipline="dest_batch", failure_fraction=0.2
    ),
    "dynamic_mrai": ExperimentSpec(
        mrai=DynamicMRAI(), queue_discipline="dest_batch", failure_fraction=0.2
    ),
    "per_destination_mrai": ExperimentSpec(
        mrai=ConstantMRAI(0.5), per_destination_mrai=True, failure_fraction=0.2
    ),
    "damping": ExperimentSpec(
        mrai=ConstantMRAI(0.5),
        damping=DampingConfig(half_life=2.0),
        failure_fraction=0.2,
    ),
}


def cyclic_garbage(fn) -> int:
    """Objects only the cycle collector could reclaim after ``fn()``."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# (a) A finished trial is freed by reference counting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SPECS))
def test_finished_trial_leaves_no_cyclic_garbage(name):
    topology = skewed_topology(30, seed=3)
    reclaimed = cyclic_garbage(
        lambda: run_experiment(topology, SPECS[name], seed=1)
    )
    print(f"\n{name}: gc.collect() after run_experiment reclaimed {reclaimed}")
    assert reclaimed == 0


def test_network_closed_mid_convergence_leaves_no_cyclic_garbage():
    # run_experiment closes a converged network; this one is closed while
    # delayed detections and armed MRAI timers (timer <-> event <->
    # speaker) are still queued.
    topology = skewed_topology(30, seed=3)
    config = BGPConfig(mrai_policy=ConstantMRAI(0.5))

    def trial():
        network = BGPNetwork(topology, config, seed=1)
        try:
            network.start()
            network.run_until_quiet()
            assert total_loc_rib_routes(network) == 30 * 30
            t0 = network.fail_nodes(
                [0, 1, 2], detection_delay=3.0, detection_jitter=1.0
            )
            network.sim.run(until=t0 + 3.5)
            assert network.sim.pending_events > 0
        finally:
            network.close()

    reclaimed = cyclic_garbage(trial)
    print(f"\nclosed mid-convergence: gc.collect() after close() reclaimed {reclaimed}")
    assert reclaimed == 0


# ----------------------------------------------------------------------
# (b) Nothing per-simulation outlives the simulation
# ----------------------------------------------------------------------
def test_live_memory_is_flat_across_trials_on_different_topologies():
    spec = SPECS["dynamic_mrai"]
    topologies = [skewed_topology(40, seed=s) for s in (11, 12, 13, 14, 15)]
    run_experiment(topologies[0], spec, seed=0)  # lazy imports, caches
    tracemalloc.start()
    try:
        live = []
        for seed, topology in enumerate(topologies, start=1):
            run_experiment(topology, spec, seed=seed)
            gc.collect()
            live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    drift = [after - live[0] for after in live[1:]]
    print(f"\nlive bytes after trial 1: {live[0]}; drift after trials 2-5: {drift}")
    assert max(abs(d) for d in drift) <= 64 * 1024


# ----------------------------------------------------------------------
# (c) Bytes per stored route
# ----------------------------------------------------------------------
def stored_routes(network: BGPNetwork) -> int:
    return sum(rib_in_route_count(s.adj_rib_in) for s in network.speakers.values())


def test_bytes_per_adj_rib_in_route_budget():
    # 95.3 B on CPython 3.11 with AS paths as chains of cells (98.4 with
    # flat path tuples), one-slot queues, pending flags and three-field
    # UPDATEs (101.4 with dict queues and pending sets, 162
    # with a dict of Route objects as the Loc-RIB, 351 with a dest-major
    # Adj-RIB-In of Routes, 403 with the intern table and tuple keys);
    # the budget leaves ~8% for allocator and sizing differences between
    # CI Pythons and is not tuned per version.
    topology = skewed_topology(120, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        network = BGPNetwork(topology, SPECS["dynamic_mrai"].to_bgp_config(), seed=1)
        network.start()
        network.run_until_quiet()
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    routes = stored_routes(network)
    per_route = live / routes
    print(
        f"\n120 nodes at warm-up quiescence: {routes} Adj-RIB-In routes, "
        f"{live / 1e6:.2f} MB live, {per_route:.1f} B/route (budget 106)"
    )
    assert per_route <= 106


class PeakEvent:
    """An ``on_event`` hook noting after which executed event the traced
    memory stood highest since :meth:`reset`.  A run repeats to the
    event, so a second run can stop there and take a snapshot."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.reset()
        sim.on_event = self

    def reset(self) -> None:
        self.bytes = tracemalloc.get_traced_memory()[0]
        self.event = self.sim.events_executed

    def __call__(self, event, elapsed) -> None:
        current = tracemalloc.get_traced_memory()[0]
        if current > self.bytes:
            self.bytes = current
            self.event = self.sim.events_executed


def top_sites(limit=5):
    """The ``limit`` allocation sites holding the most traced bytes now."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        (tracemalloc.Filter(False, tracemalloc.__file__),)
    )
    return [
        f"{stat.size / 1e6:6.2f} MB {stat.count:7d} blocks  "
        f"{'/'.join(Path(stat.traceback[0].filename).parts[-2:])}"
        f":{stat.traceback[0].lineno}"
        for stat in snapshot.statistics("lineno")[:limit]
    ]


def traced_peaks(topology, spec, seed=1):
    """A trial's ``tracemalloc`` peaks over warm-up and over convergence
    (after ``spec``'s failure), the Adj-RIB-In routes stored at warm-up
    quiescence, and after which executed event each peak stood."""

    gc.collect()
    tracemalloc.start()
    try:
        network = BGPNetwork(topology, spec.to_bgp_config(), seed=seed)
        watch = PeakEvent(network.sim)
        network.start()
        network.run_until_quiet()
        warm_up = tracemalloc.get_traced_memory()[1]
        at_event = {"warm-up": watch.event}
        routes = stored_routes(network)
        gc.collect()
        tracemalloc.reset_peak()
        fail(network, topology, spec, seed)
        watch.reset()
        network.run_until_quiet()
        convergence = tracemalloc.get_traced_memory()[1]
        at_event["convergence"] = watch.event
    finally:
        tracemalloc.stop()
    network.close()
    return routes, {"warm-up": warm_up, "convergence": convergence}, at_event


def fail(network, topology, spec, seed=1):
    """Inject ``spec``'s failure, as ``run_experiment`` does."""
    network.fail_nodes(
        build_scenario(topology, spec, seed).nodes,
        detection_delay=spec.detection_delay,
        detection_jitter=spec.detection_jitter,
    )


def test_peak_bytes_per_route_over_warm_up_and_convergence():
    # The transients, not the quiescent state, set the high-water mark:
    # queued updates, armed timers and pending work on top of the RIBs.
    # 120.8 B (warm-up) and 110.7 B (convergence) on CPython 3.11 with
    # paths as chains of cells (121.9 and 112.9 with flat path tuples),
    # one-slot queues, pending flags, three-field UPDATEs and failed
    # state released (138.9 and 138.8 before, 197 and 189 with a dict of
    # Route objects as the Loc-RIB); both are divided by the routes
    # stored at warm-up quiescence.  The budget leaves ~15%.  With -s it
    # also prints what holds the memory at each peak: the top sites at
    # the event boundary where live traced bytes stood highest, from a
    # second run stopped there.
    topology = skewed_topology(120, seed=1)
    spec = SPECS["dynamic_mrai"]
    routes, peak_bytes, at_event = traced_peaks(topology, spec)
    peaks = {phase: b / routes for phase, b in peak_bytes.items()}
    print(
        f"\n120 nodes, {routes} Adj-RIB-In routes: peak "
        + ", ".join(f"{k} {v:.1f} B/route" for k, v in peaks.items())
        + " (budget 140)"
    )

    gc.collect()
    tracemalloc.start()
    try:
        network = BGPNetwork(topology, spec.to_bgp_config(), seed=1)
        network.start()
        for phase in ("warm-up", "convergence"):
            sim = network.sim
            sim.run(max_events=at_event[phase] - sim.events_executed)
            print(f"top sites at the {phase} peak (after event {at_event[phase]}):")
            for line in top_sites():
                print("  " + line)
            if phase == "warm-up":
                network.run_until_quiet()
                fail(network, topology, spec)
    finally:
        tracemalloc.stop()
        network.close()
    assert max(peaks.values()) <= 140


def test_path_exploration_peak_bytes_per_route():
    # Under a constant MRAI with FIFO queues the convergence peak is path
    # exploration: every explored hop is an export.  As one cell in front
    # of the path it extends, an export costs 64 traced bytes whatever
    # the path length.  The 60-node trial of the fifo_storm spec reads
    # 216.5 B/route at its convergence peak on CPython 3.11 (286.1 when
    # an export copied the path into a flat tuple, (asn,) + path); the
    # budget leaves ~15% and fails the flat copy.
    topology = skewed_topology(60, seed=1)
    routes, peak_bytes, __ = traced_peaks(topology, SPECS["fifo"])
    per_route = peak_bytes["convergence"] / routes
    print(
        f"\n60 nodes, FIFO, {routes} Adj-RIB-In routes: convergence peak "
        f"{per_route:.1f} B/route (budget 250)"
    )
    assert per_route <= 250


def test_pending_work_is_one_flag_per_destination():
    # A session's deferred work is a bytearray, one flag per destination:
    # nothing grows and stays grown, and at quiescence every flag is 0.
    network = converged_network(skewed_topology(40, seed=1))
    flags = [
        ps.pending
        for speaker in network.speakers.values()
        for ps in speaker.peers.values()
    ]
    assert all(type(f) is bytearray for f in flags)
    assert {len(f) for f in flags} == {network.prefix_count}
    assert not any(1 in f for f in flags)


def test_failed_routers_and_torn_down_sessions_hold_no_tables():
    # A failure is permanent: a failed router keeps its peers' keys and
    # no per-destination list, a survivor's session to it keeps no
    # Adj-RIB-Out, and the survivor's Adj-RIB-In forgets the peer.  Reads
    # of what went answer "no route".
    topology = skewed_topology(40, seed=1)
    network = converged_network(topology, queue_discipline="dest_batch")
    peers = {n: set(s.peers) for n, s in network.speakers.items()}
    failed = set(geographic_failure(topology, 0.2).nodes)
    assert failed
    network.fail_nodes(failed)
    network.run_until_quiet()
    assert network.is_quiescent()
    dests = range(network.prefix_count)
    for node_id, speaker in network.speakers.items():
        assert set(speaker.peers) == peers[node_id]
        if node_id in failed:
            assert not speaker.alive
            rib_in, loc = speaker.adj_rib_in, speaker.loc_rib
            assert rib_in._peers == {} and rib_in._count == []
            assert len(rib_in._stamp) == 0
            assert loc.peer == loc.path == loc.export == []
            assert speaker.queue._slots == [] and len(speaker.queue) == 0
            for ps in speaker.peers.values():
                assert not ps.session_up
                assert ps.adj_rib_out == [] and ps.pending == bytearray()
                assert ps.timers == {} and ps.pending_cause is None
            for dest in dests:
                assert speaker.best_route(dest) is None
                assert all(rib_in.get(dest, p) is None for p in speaker.peers)
            continue
        for peer_id, ps in speaker.peers.items():
            if peer_id in failed:
                assert not ps.session_up
                assert ps.adj_rib_out == [] and ps.pending == bytearray()
                assert peer_id not in speaker.adj_rib_in._peers
                assert all(
                    speaker.adj_rib_in.get(dest, peer_id) is None for dest in dests
                )
            else:
                assert ps.session_up
                assert len(ps.adj_rib_out) == network.prefix_count


# ----------------------------------------------------------------------
# (d) The packed preference key is the documented 5-tuple order
# ----------------------------------------------------------------------
def documented_key(route: Route, rank: int):
    """The strict total order of the ``repro.bgp.routes`` docstring."""
    return (
        rank,
        len(route.path),
        0 if route.peer is None else 1,
        0 if route.ebgp else 1,
        -1 if route.peer is None else route.peer,
    )


ranked_routes = st.builds(
    lambda rank, length, peer, ebgp: (
        Route(1, tuple(range(length)), peer, ebgp, rank=rank),
        rank,
    ),
    rank=st.integers(min_value=0, max_value=2),
    length=st.integers(min_value=0, max_value=40),
    peer=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    ebgp=st.booleans(),
)


@given(ranked_routes, ranked_routes)
def test_packed_key_orders_exactly_like_the_documented_tuple(a, b):
    (route_a, rank_a), (route_b, rank_b) = a, b
    key_a, key_b = documented_key(route_a, rank_a), documented_key(route_b, rank_b)
    pref_a, pref_b = route_a.preference_key(), route_b.preference_key()
    assert (pref_a < pref_b) == (key_a < key_b)
    # Strict: only identical criteria tie.
    assert (pref_a == pref_b) == (key_a == key_b)
    # The decision scan ranks a candidate by (rank, length, key tail).
    scan_a = (rank_a, len(route_a.path), key_tail(route_a.peer, route_a.ebgp))
    scan_b = (rank_b, len(route_b.path), key_tail(route_b.peer, route_b.ebgp))
    assert (scan_a < scan_b) == (key_a < key_b)
    assert (scan_a == scan_b) == (key_a == key_b)


# ----------------------------------------------------------------------
# (e) Paths are shared between RIBs without a table
# ----------------------------------------------------------------------
def test_path_objects_are_shared_between_sender_and_receiver():
    # An eBGP export is one cell in front of the path the sender selected:
    # the receiver's Adj-RIB-In slot is the very cell the sender's
    # Adj-RIB-Out holds, and that cell's tail is the very path the
    # sender's Loc-RIB holds (itself a slot of the sender's Adj-RIB-In).
    # So a route costs one 3-tuple per AS that extended it, not a copy of
    # the whole path per RIB.
    network = converged_network(skewed_topology(40, seed=1))
    cells = hops = 0
    for receiver in network.speakers.values():
        for peer_id, ps in receiver.peers.items():
            sender = network.speakers[peer_id]
            for dest, sent in advertised(sender.peers[receiver.node_id]).items():
                if sent is None:
                    continue
                assert ps.ebgp
                assert receiver.adj_rib_in.get(dest, peer_id) is sent
                assert sent[1] is sender.loc_rib.path[dest]
                cells += 1
                hops += path_length(sent)
    print(
        f"\n40 nodes: {cells} advertised cells shared with the receivers, "
        f"{hops / cells:.2f} hops per path"
    )
    assert cells


# ----------------------------------------------------------------------
# (f) close()
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_leaves_a_harmless_shell():
    network = converged_network(skewed_topology(20, seed=1))
    assert total_loc_rib_routes(network) == 20 * 20
    network.close()
    network.close()
    assert network.is_quiescent()
    assert network.sim.pending_events == 0
    assert network.alive_speakers() == []
    assert "BGPNetwork" in repr(network)
    assert network.counters.snapshot()["updates_sent"] > 0


# ----------------------------------------------------------------------
# (g) A serial trial's imports: no service, store or pool stack
# ----------------------------------------------------------------------
IMPORT_CLOSURE_SCRIPT = """
import importlib, json, sys
from pathlib import Path

MODULES = %r
STACKS = %r
DEFERRED = %r


def loaded(names):
    return [m for m in names if m in sys.modules]


for name in MODULES:
    importlib.import_module(name)
report = {
    "loaded": loaded(STACKS + DEFERRED),
    "modules": len(sys.modules),
    "repro_modules": len([m for m in sys.modules if m.split(".")[0] == "repro"]),
}
# VmRSS, not ru_maxrss: after exec, ru_maxrss starts from the parent's.
status = Path("/proc/self/status")
for line in status.read_text().splitlines() if status.exists() else ():
    if line.startswith("VmRSS:"):
        report["rss_mb"] = int(line.split()[1]) / 1024

import tempfile

from repro.core.parallel import default_start_method
from repro.service import CampaignService, ServiceConfig
from repro.store import Campaign, ResultStore
from repro.store.campaign import campaign_keys

campaign = Campaign.from_dict({
    "name": "closure",
    "topology": {"kind": "internet", "nodes": 12},
    "schemes": {"a": {"mrai": 0.5}},
    "seeds": [1],
    "axis": {"name": "failure_fraction", "values": [0.1]},
})
report["from_dict_loads"] = loaded(DEFERRED)
campaign_keys(campaign)
report["campaign_keys_loads"] = loaded(DEFERRED)
with tempfile.TemporaryDirectory() as tmp:
    ResultStore(Path(tmp) / "store.db").close()
    report["store_loads_sqlite3"] = "sqlite3" in sys.modules
    service = CampaignService(
        ServiceConfig(store=str(Path(tmp) / "service.db"), quiet=True)
    )
    report["service_loads"] = loaded(DEFERRED)
    from repro.service.api import make_handler

    make_handler(service)
    report["handler_loads"] = loaded(STACKS + DEFERRED + ("socketserver",))
    service.backend.close()
default_start_method()
report["pool_loads_multiprocessing"] = "multiprocessing" in sys.modules
print(json.dumps(report))
"""

SERIAL_MODULES = (
    "repro.core.experiment",
    "repro.core.parallel",
    "repro.obs.session",
    "repro.obs.spans",
    "repro.obs.profiling",
    "repro.obs.manifest",
    "repro.specs",
    "repro.topology.skewed",
    "repro.service",
    "repro.store",
)
DEFERRED_STACKS = (
    "ssl",
    "http.client",
    "http.server",
    "urllib.request",
    "email.parser",
    "sqlite3",
    "multiprocessing",
    "subprocess",
    "uuid",
)
#: ``repro``'s optional layers (and ``csv``, which only the metrics
#: export writes): none loads with the serial trial path; the service,
#: the batch runner and the sweep axes load on their first use.
DEFERRED_REPRO = (
    "repro.service.api",
    "repro.service.executor",
    "repro.obs.live",
    "repro.core.batch",
    "repro.core.sweep",
    "repro.core.validation",
    "repro.obs.metrics",
    "repro.obs.probes",
    "repro.obs.export",
    "repro.specs.scheme_sets",
    "repro.topology.internet",
    "csv",
)
#: ``repro`` modules importing ``SERIAL_MODULES`` may load (53 today).
SERIAL_REPRO_BUDGET = 53


def fresh_interpreter(script):
    """Run ``script`` in a new Python on this checkout's ``src/`` and
    return what it printed as JSON, so nothing this test session
    imported leaks in."""
    import json
    import os
    import subprocess

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {
        k: v for k, v in os.environ.items() if k != "REPRO_POOL_START_METHOD"
    }
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_serial_import_closure():
    """Importing what a serial trial needs (and the service and store
    packages) loads none of the HTTP/TLS, SQLite, multiprocessing,
    subprocess or uuid stacks, nor ``repro``'s service, batch, sweep,
    validation and observation layers; each loads on the first use of
    the piece that needs it."""
    report = fresh_interpreter(
        IMPORT_CLOSURE_SCRIPT % (SERIAL_MODULES, DEFERRED_STACKS, DEFERRED_REPRO)
    )
    print(
        f"\nserial import closure on {sys.version.split()[0]}: "
        f"{report['modules']} modules ({report['repro_modules']} repro), "
        f"{report.get('rss_mb', 0):.1f} MB RSS"
    )
    assert report["loaded"] == []
    assert report["repro_modules"] <= SERIAL_REPRO_BUDGET
    assert {"repro.core.batch", "repro.core.sweep"} <= set(
        report["from_dict_loads"]
    )
    assert "repro.topology.internet" in report["campaign_keys_loads"]
    assert "repro.topology.internet" not in report["from_dict_loads"]
    assert report["store_loads_sqlite3"]
    assert "repro.service.executor" in report["service_loads"]
    assert "repro.obs.live" not in report["service_loads"]
    assert "repro.service.api" not in report["service_loads"]
    assert {"repro.service.api", "socketserver"} <= set(report["handler_loads"])
    assert "http.server" not in report["handler_loads"]
    assert report["pool_loads_multiprocessing"]


SERVICE_ROUND_TRIP_SCRIPT = """
import json, socket, sys, tempfile
from pathlib import Path

lookups = []
real_getfqdn = socket.getfqdn


def counted(*args):
    lookups.append(args)
    return real_getfqdn(*args)


socket.getfqdn = counted
from repro.service import CampaignService, ServiceClient, ServiceConfig

with tempfile.TemporaryDirectory() as tmp:
    service = CampaignService(
        ServiceConfig(store=str(Path(tmp) / "svc.db"), port=0, quiet=True)
    )
    service.start()
    try:
        start_lookups = len(lookups)
        health = ServiceClient(f"http://127.0.0.1:{service.port}").health()
    finally:
        service.shutdown()
print(json.dumps({
    "getfqdn_calls": start_lookups,
    "status": health["status"],
    "stacks": [m for m in ("http.client", "http.server", "email.parser", "ssl",
                           "mimetypes", "encodings.idna", "urllib.request")
               if m in sys.modules],
}))
"""


def test_service_round_trip_loads_one_http_stack():
    """The daemon binds without a reverse lookup of its address, and a
    client round trip to it runs on ``socketserver`` and ``socket``
    alone: no stdlib HTTP, email, TLS, MIME-type or IDNA module loads
    in the process."""
    report = fresh_interpreter(SERVICE_ROUND_TRIP_SCRIPT)
    assert report["status"] == "ok"
    assert report["getfqdn_calls"] == 0
    assert report["stacks"] == []


#: What the paper's one trial (warm-up, geographic failure, convergence)
#: does not run: the batch runner and pool, the store, service, specs
#: and figure layers, the theory helpers, the routing validator, the
#: live / causal / data-plane monitors and the metrics, probe and export
#: recorders of an observed trial.  Each loads where a caller needs it.
TRIAL_EXCLUDED = (
    "repro.service",
    "repro.store",
    "repro.specs",
    "repro.figures",
    "repro.analysis",
    "repro.core.batch",
    "repro.core.parallel",
    "repro.core.sweep",
    "repro.core.theory",
    "repro.core.validation",
    "repro.obs.live",
    "repro.obs.causality",
    "repro.obs.dataplane",
    "repro.obs.metrics",
    "repro.obs.probes",
    "repro.obs.export",
)
#: ``repro`` modules ``import repro, repro.core.experiment`` may load
#: (35 today).
TRIAL_MODULE_BUDGET = 35


def test_trial_import_closure():
    """The package top and the trial module load only the simulator,
    the BGP model, the topology and failure generators and the obs
    recorders a trial fills: no package re-exports the rest."""
    report = fresh_interpreter(
        "import json, sys\n"
        "import repro, repro.core.experiment\n"
        "print(json.dumps({'repro': sorted(m for m in sys.modules\n"
        "    if m.split('.')[0] == 'repro'), 'modules': len(sys.modules)}))\n"
    )
    loaded = report["repro"]
    print(
        f"\ntrial import closure on {sys.version.split()[0]}: "
        f"{len(loaded)} repro modules, {report['modules']} in all"
    )
    assert [
        name
        for name in loaded
        if any(name == x or name.startswith(x + ".") for x in TRIAL_EXCLUDED)
    ] == []
    assert len(loaded) <= TRIAL_MODULE_BUDGET, loaded
