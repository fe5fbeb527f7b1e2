"""The figure suite: every registered figure, regenerated and checked.

One test per entry of :data:`repro.figures.FIGURES` runs the figure
through :func:`repro.figures.compute_figure`, prints the series table
(the same rows/series the paper plots), saves it under ``results/`` at
the repo root and asserts the figure's *strict* shape checks — the
paper's qualitative claims.  ``-k fig03`` selects one.

Every figure gets the same session-scoped temporary ``ResultStore`` as
``store=``: Figs 1/2 and 10/11 plot two columns of the same trials, and
most figures re-run the constant-0.5 column, so about half the trials
the suite plans are served by the store.  Its hit/miss line closes the
session.

Scale: ``REPRO_BENCH_SCALE=quick`` (default: 60-node topologies, minutes
for the whole suite) or ``full`` (the paper's 120-node scale, 3 trials
per point; expect an hour or more).
"""

import pathlib

import pytest

from repro.analysis.export import series_to_csv
from repro.figures import FIGURES, compute_figure, resolve_profile
from repro.store import ResultStore

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def store(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("figures") / "store.db"
    with ResultStore(path) as shared:
        yield shared
        capture = request.config.pluginmanager.get_plugin("capturemanager")
        with capture.global_and_fixture_disabled():
            print(
                f"\nfigure store: {shared.hits} hits / {shared.misses} "
                f"misses ({len(shared)} trials banked)"
            )


@pytest.mark.parametrize("figure_id", FIGURES)
def test_figure(benchmark, store, figure_id):
    profile = resolve_profile(None)
    output = benchmark.pedantic(
        compute_figure,
        args=(figure_id, profile),
        kwargs={"store": store},
        rounds=1,
        iterations=1,
    )
    rendered = output.render()
    print()
    print(rendered)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{figure_id}_{profile.name}"
    stem.with_suffix(".txt").write_text(rendered + "\n", encoding="utf-8")
    # Machine-readable companion for plotting.
    stem.with_suffix(".csv").write_text(
        series_to_csv(output.series), encoding="utf-8"
    )
    failed = [c for c in output.checks if c.strict and not c.passed]
    assert not failed, (
        f"{figure_id}: strict shape checks failed: "
        + "; ".join(f"{c.name} ({c.detail})" for c in failed)
    )
