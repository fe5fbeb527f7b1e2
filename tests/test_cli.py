"""Tests for the command-line interface."""

import pytest

from repro.cli import build_mrai_policy, build_topology, main, make_parser
from repro.bgp.mrai import ConstantMRAI
from repro.core.degree_mrai import DegreeDependentMRAI
from repro.core.dynamic_mrai import DynamicMRAI


def parse(argv):
    return make_parser().parse_args(argv)


def test_run_defaults():
    args = parse(["run"])
    assert args.nodes == 120
    assert args.mrai == 0.5
    assert args.queue == "fifo"
    assert args.failure == 0.05


def test_build_topology_variants():
    args = parse(["run", "--nodes", "20", "--topology", "skewed"])
    topo = build_topology(args)
    assert topo.num_routers == 20

    args = parse(["run", "--nodes", "20", "--topology", "internet"])
    assert build_topology(args).num_routers == 20

    args = parse(["run", "--nodes", "6", "--topology", "multirouter"])
    multi = build_topology(args)
    assert len(multi.as_numbers()) == 6


def test_build_mrai_policy_variants():
    args = parse(["run", "--mrai-scheme", "constant", "--mrai", "1.5"])
    policy = build_mrai_policy(args)
    assert isinstance(policy, ConstantMRAI)
    assert policy.value == 1.5

    args = parse(
        ["run", "--mrai-scheme", "degree", "--mrai-low", "0.3", "--mrai-high", "3"]
    )
    policy = build_mrai_policy(args)
    assert isinstance(policy, DegreeDependentMRAI)
    assert policy.low_value == 0.3
    assert policy.high_value == 3.0

    args = parse(
        ["run", "--mrai-scheme", "dynamic", "--up-th", "1.0", "--down-th", "0.1"]
    )
    policy = build_mrai_policy(args)
    assert isinstance(policy, DynamicMRAI)
    assert policy.up_th == 1.0
    assert policy.down_th == 0.1


def test_cli_run_end_to_end(capsys):
    code = main(
        [
            "run",
            "--nodes",
            "20",
            "--mrai",
            "0.5",
            "--failure",
            "0.1",
            "--seed",
            "1",
            "--validate",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "convergence delay" in captured.out
    assert "update messages" in captured.out


def test_cli_run_batching(capsys):
    code = main(
        ["run", "--nodes", "20", "--queue", "dest_batch", "--failure", "0.2"]
    )
    assert code == 0
    assert "stale dropped" in capsys.readouterr().out


def test_cli_sweep_unknown_figure(capsys):
    code = main(["sweep", "--figure", "fig99"])
    assert code == 2
    assert "unknown figure" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# Store-backed sweeps and campaigns
# ----------------------------------------------------------------------
import json


def write_campaign(tmp_path, store=None):
    data = {
        "name": "cli-unit",
        "topology": {
            "kind": "skewed",
            "nodes": 24,
            "distribution": "70-30",
        },
        "schemes": {"fifo-0.5": {"mrai": 0.5}},
        "axis": {"name": "failure_fraction", "values": [0.1]},
        "seeds": [1, 2],
    }
    if store is not None:
        data["store"] = str(store)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_cli_sweep_resume_requires_store(capsys):
    code = main(["sweep", "--figure", "fig01", "--resume"])
    assert code == 2
    assert "--resume requires --store" in capsys.readouterr().err


def test_cli_sweep_resume_missing_store(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--figure",
            "fig01",
            "--store",
            str(tmp_path / "none.db"),
            "--resume",
        ]
    )
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_campaign_cycle(tmp_path, capsys):
    store = tmp_path / "store.db"
    cfile = write_campaign(tmp_path, store=store)

    # status before any run: nothing cached, still exit 0 (no --check)
    assert main(["campaign", "status", str(cfile)]) == 0
    assert "0/2 trials cached" in capsys.readouterr().out
    # ... but --check flags the incomplete grid
    assert main(["campaign", "status", str(cfile), "--check"]) == 1
    capsys.readouterr()

    # resume before run: nothing to resume
    assert main(["campaign", "resume", str(cfile)]) == 2
    assert "does not exist" in capsys.readouterr().err

    # export before run: refuse
    out_dir = tmp_path / "series"
    assert (
        main(["campaign", "export", str(cfile), "--out", str(out_dir)]) == 1
    )
    assert "cannot export" in capsys.readouterr().err

    # cold run executes everything
    assert main(["campaign", "run", str(cfile)]) == 0
    cold = capsys.readouterr().out
    assert "2 trials — 0 cached (0%), 2 executed" in cold
    assert "convergence delay" in cold

    # resume is pure cache and renders the identical tables
    assert main(["campaign", "resume", str(cfile)]) == 0
    warm = capsys.readouterr().out
    assert "2 cached (100%), 0 executed" in warm
    assert warm.split("\n", 1)[1] == cold.split("\n", 1)[1]

    # status --check now passes; history shows both runs
    assert main(["campaign", "status", str(cfile), "--check"]) == 0
    status = capsys.readouterr().out
    assert "2/2 trials cached" in status
    assert status.count("run 2") >= 2  # two recorded manifest rows

    # export folds from the store only
    assert (
        main(["campaign", "export", str(cfile), "--out", str(out_dir)]) == 0
    )
    assert (out_dir / "cli-unit.csv").exists()
    assert (out_dir / "cli-unit.json").exists()


def test_cli_campaign_store_flag_overrides_file(tmp_path, capsys):
    cfile = write_campaign(tmp_path)  # no store in the file
    assert main(["campaign", "run", str(cfile)]) == 2
    assert "no store" in capsys.readouterr().err

    override = tmp_path / "cli-store.db"
    code = main(
        ["campaign", "run", str(cfile), "--store", str(override), "--jobs", "2"]
    )
    assert code == 0
    assert override.exists()


def test_cli_campaign_says_when_trials_were_truncated(tmp_path, capsys):
    """A trial cut off at max_convergence_time is banked and folded like
    any other (its delay is a lower bound): `campaign run` and `resume`
    say how many there are, on stderr and in the summary line; a grid
    without one (test_cli_campaign_cycle's) prints neither."""
    data = json.loads(write_campaign(tmp_path).read_text(encoding="utf-8"))
    data["topology"]["nodes"] = 30
    data["schemes"] = {
        "cut": {"mrai": 2.25, "max_convergence_time": 1.0},
        "full": {"mrai": 2.25},
    }
    cfile = tmp_path / "truncated.json"
    cfile.write_text(json.dumps(data), encoding="utf-8")
    store = str(tmp_path / "store.db")
    warning = (
        "WARNING: 2 of 4 trial(s) truncated at max_convergence_time — "
        "their delays are lower bounds\n"
    )
    for verb, counted in (("run", "4 executed"), ("resume", "0 executed")):
        assert main(["campaign", verb, str(cfile), "--store", store]) == 0
        captured = capsys.readouterr()
        assert captured.err == warning
        summary = captured.out.splitlines()[0]
        assert f"{counted}, 2 truncated in " in summary

    assert main(["campaign", "run", str(write_campaign(tmp_path)),
                 "--store", str(tmp_path / "clean.db")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "truncated" not in captured.out


# ----------------------------------------------------------------------
# A bad path or file is one stderr line and an exit code
# ----------------------------------------------------------------------
def test_cli_campaign_verbs_reject_an_unloadable_file(tmp_path, capsys):
    """`validate` and every verb that loads a campaign file: exit 2 and
    the one `PATH: INVALID — reason` line, for a missing file and for
    each malformed document (a mistyped topology block among them) —
    and no store file."""
    from tests.test_store_campaign import MALFORMED

    cases = [(tmp_path / "missing.json", "No such file")]
    for document, field in MALFORMED:
        path = tmp_path / f"bad{len(cases)}.json"
        if isinstance(document, dict):
            document = {"store": str(tmp_path / "store.db"), **document}
        path.write_text(json.dumps(document), encoding="utf-8")
        cases.append((path, field))
    export = ["export", "--out", str(tmp_path / "series")]
    for path, field in cases:
        for verb, *extra in (
            ["validate"], ["run"], ["resume"], ["status"], ["watch"], export
        ):
            assert main(["campaign", verb, str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"{path}: INVALID") and field in err
            assert len(err.splitlines()) == 1
    assert not (tmp_path / "store.db").exists()


def test_cli_read_only_verbs_do_not_create_the_store(tmp_path, capsys):
    store = tmp_path / "absent.db"
    assert main(["store", "stats", str(store)]) == 2
    assert f"store {store} does not exist" in capsys.readouterr().err
    assert not store.exists()

    cfile = write_campaign(tmp_path, store=store)
    out_dir = tmp_path / "series"
    assert (
        main(["campaign", "export", str(cfile), "--out", str(out_dir)]) == 1
    )
    assert f"store {store} does not exist" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize(
    "content",
    [None, "not json", '{"host": "127.0.0.1"}', "[1]"],
    ids=["missing", "unparsable", "key-less", "not-an-object"],
)
def test_cli_client_verbs_report_an_unusable_ready_file(
    content, tmp_path, capsys
):
    ready = tmp_path / "ready.json"
    if content is not None:
        ready.write_text(content, encoding="utf-8")
    cfile = write_campaign(tmp_path)
    for verb in (["queue", "status"], ["result", "t1"], ["submit", str(cfile)]):
        assert main([*verb, "--ready-file", str(ready)]) == 1
        err = capsys.readouterr().err
        assert str(ready) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "content", [None, "not json"], ids=["missing", "unparsable"]
)
def test_cli_submit_rejects_an_unreadable_file(content, tmp_path, capsys):
    path = tmp_path / "body.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    # Nothing listens on the URL: exit 2, not the client's 1, shows no
    # request was attempted.
    assert main(["submit", str(path), "--url", "http://127.0.0.1:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: INVALID") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["run", "--nodes", "20", "--failure", "0.9"], "failure_fraction"),
        (["run", "--nodes", "1"], "nodes must be at least 2"),
        (["run", "--nodes", "20", "--mrai", "-1"], "mrai must be non-negative"),
        (["topo", "--nodes", "1"], "nodes must be at least 2"),
    ],
    ids=["run-failure", "run-nodes", "run-mrai", "topo-nodes"],
)
def test_cli_run_and_topo_reject_out_of_range_values(argv, reason, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]}: ") and reason in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--store", "x.db", "--batch-size", "0"],
        ["serve", "--store", "x.db", "--jobs", "0"],
        ["campaign", "watch", "c.json", "--follow", "--interval", "-1"],
    ],
    ids=["serve-batch-size", "serve-jobs", "watch-interval"],
)
def test_cli_rejects_non_positive_numbers_at_parse_time(argv, tmp_path, capsys):
    argv = [str(tmp_path / a) if a.endswith((".db", ".json")) else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
