"""Tests for the figure registry and its scale profiles.

These do not run the (expensive) figure computations; the benchmarks do
that.  The figure wiring, profile resolution and the output container
are covered here, plus one real end-to-end figure at a tiny custom
profile.
"""

import importlib.util
import pathlib

import pytest

from repro.core.sweep import Series
from repro.figures import (
    FIGURES,
    FULL,
    QUICK,
    compute_figure,
    resolve_profile,
)
from repro.figures.common import (
    Check,
    FigureOutput,
    ScaleProfile,
    check_le,
    check_ratio,
)


def test_all_thirteen_figures_registered():
    paper_figures = [
        f for f in FIGURES if f.startswith("fig") and f[3:].isdigit()
    ]
    assert sorted(paper_figures) == [f"fig{i:02d}" for i in range(1, 14)]


def test_dataplane_figure_registered():
    assert "figdp01" in FIGURES
    assert "unreachab" in FIGURES["figdp01"].caption.lower()


def test_ablations_registered():
    ablations = sorted(f for f in FIGURES if f.startswith("ab_"))
    assert ablations == [
        "ab_detection_delay",
        "ab_failure_geometry",
        "ab_flap_damping",
        "ab_future_work",
        "ab_high_degree_only",
        "ab_monitors",
        "ab_per_dest_mrai",
        "ab_policy_routing",
        "ab_processing",
        "ab_tcp_batch",
        "ab_withdrawal_rl",
    ]


def test_modules_expose_required_api():
    for fid, figure in FIGURES.items():
        assert figure.figure_id == fid
        assert isinstance(figure.caption, str) and figure.caption
        assert set(figure.metrics) <= {"delay", "messages", "unreachable"}
        assert callable(figure.grids) and callable(figure.checks)


def test_experiments_md_commentary_covers_the_registry():
    path = pathlib.Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(
        "generate_experiments_md", path / "generate_experiments_md.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert set(tool.COMMENTARY) == set(FIGURES)


def test_resolve_profile_explicit():
    assert resolve_profile("quick") is QUICK
    assert resolve_profile("full") is FULL
    with pytest.raises(ValueError):
        resolve_profile("bogus")


def test_resolve_profile_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
    assert resolve_profile(None) is FULL
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert resolve_profile(None) is QUICK


def test_profiles_are_consistent():
    for profile in (QUICK, FULL):
        assert profile.fractions == tuple(sorted(profile.fractions))
        assert profile.mrai_grid == tuple(sorted(profile.mrai_grid))
        assert profile.dynamic_levels == tuple(sorted(profile.dynamic_levels))
        assert profile.seeds
        assert profile.smallest_fraction < profile.largest_fraction
        assert set(profile.mrai_three) <= set(profile.mrai_grid)


def test_full_profile_matches_paper_scale():
    assert FULL.nodes == 120
    assert FULL.mrai_three == (0.5, 1.25, 2.25)
    assert 0.20 in FULL.fractions
    assert 0.01 in FULL.fractions


def test_compute_figure_unknown_id():
    with pytest.raises(KeyError):
        compute_figure("fig99")


def test_factories_build_at_profile_scale():
    topo = FIGURES["fig01"].grids(QUICK)[0].topology_factory()(1)
    assert topo.num_routers == QUICK.nodes
    multi = FIGURES["fig13"].grids(QUICK)[0].topology_factory()(1)
    assert len(multi.as_numbers()) == QUICK.multirouter_ases


def test_checks_render_and_classify():
    ok = Check("good", True, "detail")
    bad_soft = Check("meh", False, strict=False)
    bad_strict = Check("bad", False, "boom")
    assert "PASS" in str(ok)
    assert "soft-fail" in str(bad_soft)
    assert "FAIL" in str(bad_strict)


def test_check_helpers():
    assert check_ratio("r", 10.0, 2.0, minimum=4.0).passed
    assert not check_ratio("r", 10.0, 2.0, minimum=6.0).passed
    assert check_ratio("r", 1.0, 0.0, minimum=100.0).passed  # inf ratio
    assert check_le("le", 5.0, 4.0, slack=1.5).passed
    assert not check_le("le", 5.0, 4.0).passed


def test_end_to_end_tiny_figure():
    # A miniature profile proves a real figure runs end to end quickly.
    tiny = ScaleProfile(
        name="tiny",
        nodes=20,
        seeds=(1,),
        fractions=(0.1, 0.3),
        mrai_grid=(0.5, 2.25),
        mrai_three=(0.5, 1.25, 2.25),
        dynamic_levels=(0.5, 2.25),
        fig3_fractions=(0.1, 0.3),
        multirouter_ases=8,
    )
    out = compute_figure("fig01", tiny)
    assert isinstance(out, FigureOutput)
    assert len(out.series) == 3
    assert all(isinstance(s, Series) for s in out.series)
    text = out.render()
    assert "fig01" in text
    assert "Shape checks:" in text
