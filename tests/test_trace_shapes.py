"""The declared record shapes (``repro.sim.trace.RECORD_SHAPES``).

A run emits exactly the declared categories, each record in its shape;
both offline reports refuse a record of any declared category whose field
has the wrong type, as one stderr line and exit 2; and a traced run
flattens each recorded path once.
"""

import contextlib
import cProfile
import io
import json
import pstats

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.mrai import ConstantMRAI
from repro.bgp.network import BGPNetwork
from repro.cli import main
from repro.core.experiment import (
    ExperimentSpec,
    build_scenario,
    run_experiment,
)
from repro.obs.session import ObsSession
from repro.sim.trace import (
    RECORD_SHAPES,
    JsonlSink,
    Tracer,
    TraceRecord,
    load_trace,
)
from repro.topology.skewed import skewed_topology

REPORTS = (["trace", "analyze"], ["dataplane", "report"])

#: One valid record of each declared category, as a file holds it: the
#: order a data-plane-monitored trace file has them in.
VALID = {
    "dataplane_trial": (None, [1, 5.0]),
    "dataplane": (4, [9, "ok", 2]),
    "route_change": (4, [9, [4, 9]]),
    "causality": (3, ["send", 1, -1, 9, 4, [3, 9]]),
}

#: The JSON types each field of a VALID record may hold: its node
#: (None where the declaration does not check it), then its detail.
ACCEPTS = {
    "dataplane_trial": (None, [{"int"}, {"int", "float"}]),
    "dataplane": ({"int"}, [{"int"}, {"str"}, {"int", "null"}]),
    "route_change": ({"int"}, [{"int"}, {"list", "null"}]),
    "causality": (
        {"int"},  # the node of a send
        [{"str"}, {"int"}, {"int", "null"}, {"int", "null"},
         {"int", "null"}, {"list", "null"}],
    ),
}

JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}


def write_records(path, records):
    path.write_text(
        "".join(
            json.dumps({"time": float(t), "category": c, "node": n,
                        "detail": d}) + "\n"
            for t, (c, (n, d)) in enumerate(records)
        ),
        encoding="utf-8",
    )


def report(argv):
    """``main(argv)``'s exit code and stderr lines; a traceback raises."""
    err = io.StringIO()
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return code, err.getvalue().splitlines()


def test_a_traced_monitored_trial_emits_each_declared_category_in_shape(
    tmp_path,
):
    path = tmp_path / "trial.jsonl"
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2)
    with JsonlSink(path) as sink:
        run_experiment(
            skewed_topology(12, seed=1), spec, seed=1,
            obs=ObsSession(trace=True, dataplane=True, sink=sink),
        )
    records = load_trace(path)  # refuses a record not in its shape
    assert {r.category for r in records} == set(RECORD_SHAPES)
    for record in records:
        assert RECORD_SHAPES[record.category].admits(
            record.node, record.detail
        ), record


def test_both_reports_read_the_valid_records(tmp_path):
    assert set(VALID) == set(RECORD_SHAPES)
    path = tmp_path / "records.jsonl"
    write_records(path, VALID.items())
    for verb in REPORTS:
        assert report([*verb, str(path)]) == (0, [])


@st.composite
def corruptions(draw):
    """(category, field, value): field -1 is the node, else a detail
    index; the value is of a JSON type the field does not hold."""
    category = draw(st.sampled_from(sorted(VALID)))
    node, detail = ACCEPTS[category]
    fields = [i for i in range(-1, len(detail)) if i >= 0 or node]
    field = draw(st.sampled_from(fields))
    accepted = node if field < 0 else detail[field]
    kind = draw(st.sampled_from(sorted(set(JSON_VALUES) - accepted)))
    return category, field, draw(JSON_VALUES[kind])


@settings(max_examples=60, deadline=None)
@given(corruption=corruptions())
def test_both_reports_refuse_a_field_of_the_wrong_type(
    corruption, tmp_path_factory
):
    category, field, value = corruption
    node, detail = VALID[category]
    if field < 0:
        node = value
    else:
        detail = [*detail[:field], value, *detail[field + 1:]]
    records = dict(VALID, **{category: (node, detail)})
    path = tmp_path_factory.mktemp("corrupt") / "records.jsonl"
    write_records(path, records.items())
    for verb in REPORTS:
        code, err = report([*verb, str(path)])
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(
            f"cannot analyze {path}: {path}: a {category} record at time "
        )
        assert err[0].endswith(f", not {RECORD_SHAPES[category].sentence}")


def test_a_dataplane_report_refuses_a_route_change_it_does_not_read(
    tmp_path,
):
    path = tmp_path / "records.jsonl"
    write_records(
        path, dict(VALID, route_change=(4, [9, [[4], 9]])).items()
    )
    assert report(["dataplane", "report", str(path)]) == (2, [
        f"cannot analyze {path}: {path}: a route_change record at time 2 "
        "has node 4 and detail [9, [[4], 9]], not an integer node and "
        "detail [dest, null or [asn, ...]]"
    ])


def test_an_undeclared_category_loads_unchecked(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [("peer_down", ("x", [[[1]]]))])
    assert "peer_down" not in RECORD_SHAPES
    assert load_trace(path) == [
        TraceRecord(0.0, "peer_down", "x", (([1],),))
    ]


def test_a_traced_path_is_flattened_once():
    # One path_tuple call per recorded path: a route_change with a path,
    # or a causality send with a payload.
    topology = skewed_topology(20, seed=1)
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.2)
    tracer = Tracer()
    network = BGPNetwork(topology, spec.to_bgp_config(), seed=1,
                         tracer=tracer)
    profile = cProfile.Profile()
    profile.enable()
    network.start()
    network.run_until_quiet()
    network.fail_nodes(build_scenario(topology, spec, 1).nodes)
    network.run_until_quiet()
    profile.disable()
    calls = sum(
        ncalls
        for (filename, __, name), (__, ncalls, *__) in
        pstats.Stats(profile).stats.items()
        if name == "path_tuple" and filename.endswith("routes.py")
    )
    paths = sum(
        1
        for r in tracer.records
        if (r.category == "route_change" and r.detail[1] is not None)
        or (r.category == "causality" and r.detail[0] == "send"
            and r.detail[5] is not None)
    )
    assert paths > 1000
    assert calls == paths
