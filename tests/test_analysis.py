"""Tests for reporting and shape predicates."""

import pytest

from repro.analysis.report import (
    format_figure,
    format_series_table,
    series_to_rows,
)
from repro.analysis.shapes import is_v_shaped, monotone_increasing, optimal_x
from repro.core.sweep import Series


class FakeResult:
    def __init__(self, delay, msgs):
        self.mean_delay = delay
        self.mean_messages = msgs


def make_series(label, points):
    series = Series(label=label, x_name="mrai")
    for x, delay, msgs in points:
        series.add(x, FakeResult(delay, msgs))
    return series


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------
def test_optimal_x():
    assert optimal_x([1, 2, 3], [5.0, 2.0, 4.0]) == 2
    # Ties resolve to the smallest x.
    assert optimal_x([1, 2], [3.0, 3.0]) == 1
    with pytest.raises(ValueError):
        optimal_x([], [])
    with pytest.raises(ValueError):
        optimal_x([1], [1.0, 2.0])


def test_is_v_shaped_true():
    assert is_v_shaped([1, 2, 3, 4], [10, 4, 6, 12])


def test_is_v_shaped_tolerates_noise():
    assert is_v_shaped([1, 2, 3, 4, 5], [10, 9.5, 4, 4.2, 9], tolerance=0.1)


def test_is_v_shaped_rejects_monotone():
    assert not is_v_shaped([1, 2, 3], [1, 2, 3])
    assert not is_v_shaped([1, 2, 3], [3, 2, 1])


def test_is_v_shaped_rejects_w_shape():
    assert not is_v_shaped([1, 2, 3, 4, 5], [10, 2, 8, 1.5, 9])


def test_is_v_shaped_unsorted_input():
    assert is_v_shaped([3, 1, 2], [6, 10, 4])


def test_is_v_shaped_validation():
    with pytest.raises(ValueError):
        is_v_shaped([1, 2], [1, 2])


def test_monotone_increasing():
    assert monotone_increasing([1, 2, 3])
    assert monotone_increasing([1, 1, 1])
    assert monotone_increasing([10, 9.5, 12], tolerance=0.1)
    assert not monotone_increasing([10, 5, 12], tolerance=0.1)
    with pytest.raises(ValueError):
        monotone_increasing([])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def test_series_to_rows_delay():
    a = make_series("a", [(0.5, 10.0, 100), (1.0, 5.0, 50)])
    b = make_series("b", [(0.5, 8.0, 80)])
    header, rows = series_to_rows([a, b], metric="delay")
    assert header == ["mrai", "a", "b"]
    assert rows[0] == ["0.5", "10.00", "8.00"]
    assert rows[1] == ["1", "5.00", "-"]  # b has no point at 1.0


def test_series_to_rows_messages():
    a = make_series("a", [(0.5, 10.0, 100)])
    __, rows = series_to_rows([a], metric="messages")
    assert rows[0] == ["0.5", "100"]


def test_series_to_rows_rejects_unknown_metric():
    with pytest.raises(ValueError):
        series_to_rows([], metric="bogus")


def test_format_series_table_alignment():
    a = make_series("scheme-a", [(0.5, 10.0, 100), (1.0, 5.0, 50)])
    text = format_series_table([a], title="[delay]")
    lines = text.splitlines()
    assert lines[0] == "[delay]"
    assert "scheme-a" in lines[1]
    assert len(lines) == 5  # title, header, rule, 2 rows


def test_format_figure_contains_all_parts():
    a = make_series("a", [(0.5, 10.0, 100)])
    text = format_figure("fig99", "caption here", [a], ("delay", "messages"))
    assert "fig99" in text
    assert "caption here" in text
    assert "convergence delay" in text
    assert "update messages" in text
