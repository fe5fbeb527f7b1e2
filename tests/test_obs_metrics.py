"""Unit tests for the metrics registry (counters, histograms)."""

import pytest

from repro.bgp.mrai import ConstantMRAI
from repro.core.experiment import ExperimentSpec, simulate_trial
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    format_metric_name,
)
from repro.obs.session import ObsSession, TrialObserver
from repro.topology.skewed import skewed_topology


def lookup(reg, name, **labels):
    """The child of ``reg`` under ``name`` and ``labels``, or ``None``:
    a read that never creates one."""
    return next(
        (
            child
            for child in reg.children()
            if child.name == name and child.label_dict() == labels
        ),
        None,
    )


# ----------------------------------------------------------------------
# MetricsRegistry semantics
# ----------------------------------------------------------------------
def test_counter_get_or_create_returns_same_child():
    reg = MetricsRegistry()
    a = reg.counter("updates_processed", node=7)
    b = reg.counter("updates_processed", node=7)
    assert a is b
    a.inc()
    assert b.value == 1


def test_labels_distinguish_children():
    reg = MetricsRegistry()
    reg.counter("updates_processed", node=1).inc(3)
    reg.counter("updates_processed", node=2).inc(5)
    assert lookup(reg, "updates_processed", node=1).value == 3
    assert lookup(reg, "updates_processed", node=2).value == 5
    assert len(reg.records()) == 2


def test_label_order_does_not_matter():
    reg = MetricsRegistry()
    a = reg.counter("depth", node=1, link=2)
    b = reg.counter("depth", link=2, node=1)
    assert a is b


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_histogram_bucket_conflict_raises():
    reg = MetricsRegistry()
    reg.histogram("h", buckets=(1, 2, 3))
    with pytest.raises(ValueError):
        reg.histogram("h", buckets=(1, 2, 4))
    # Same buckets is fine and returns the same child.
    assert reg.histogram("h", buckets=(1, 2, 3)) is lookup(reg, "h")


def test_get_never_creates():
    reg = MetricsRegistry()
    assert lookup(reg, "nope") is None
    assert lookup(reg, "nope", node=1) is None
    assert reg.records() == []


def test_records_deterministic_order():
    reg = MetricsRegistry()
    reg.counter("b", node=2).inc()
    reg.counter("b", node=1).inc()
    reg.counter("a").inc()
    names = [r["name"] for r in reg.records()]
    assert names == ["a", "b", "b"]
    # Repeated calls give the identical ordering.
    assert [r["name"] for r in reg.records()] == names


def test_format_metric_name():
    assert format_metric_name("plain", ()) == "plain"
    assert format_metric_name("m", (("a", 1), ("b", "x"))) == "m{a=1,b=x}"


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)
    c.inc(0)
    c.inc(5)
    assert c.value == 5


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bucketing_exact():
    h = Histogram("h", (), buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 9.0):
        h.observe(v)
    # bisect_left: a value equal to a bound lands in that bound's bucket.
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(15.0)
    assert h.counts[-1] == 1  # the overflow bucket


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=())
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", (), buckets=(1.0, 1.0, 2.0))


def test_default_buckets_are_ascending():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(set(DEFAULT_TIME_BUCKETS))
    assert list(DEFAULT_COUNT_BUCKETS) == sorted(set(DEFAULT_COUNT_BUCKETS))


def test_histogram_default_buckets_applied():
    reg = MetricsRegistry()
    h = reg.histogram("svc")
    assert h.buckets == DEFAULT_TIME_BUCKETS


# ----------------------------------------------------------------------
# The network's counters enter the registry once per trial
# ----------------------------------------------------------------------
def test_observed_trial_copies_its_counters_into_the_registry():
    observer = TrialObserver(ObsSession().worker_args())
    spec = ExperimentSpec(mrai=ConstantMRAI(0.5), failure_fraction=0.1)
    result = simulate_trial(
        skewed_topology(20, seed=3), spec, seed=1, observer=observer
    )
    record = observer.record()
    network_counters = record["snapshot"]["counters"]
    assert network_counters["updates_sent"] == (
        result.warmup_messages + result.messages_sent
    )
    unlabelled = {
        row["name"]: row["value"]
        for row in record["metrics"]
        if row["kind"] == "counter" and not row["labels"]
    }
    assert unlabelled == network_counters
