"""CLI front-end tests (analyzer and regression tools)."""

import os

import pytest

from repro.analyzer.cli import main as analyzer_main
from repro.catg import run_test
from repro.regression import save_config_dir
from repro.regression.cli import main as regression_main
from repro.regression.testcases import build_test
from repro.stbus import ArbitrationPolicy, NodeConfig


@pytest.fixture(scope="module")
def vcd_pair(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli_vcds")
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="cli")
    paths = {}
    for view, bugs in (("rtl", ()), ("bca", ()), ("bad", ("lru-recency-stuck",))):
        actual_view = "bca" if view == "bad" else view
        path = str(workdir / f"{view}.vcd")
        run_test(cfg, build_test("t06_lru_fairness", cfg, 2),
                 view=actual_view, bugs=bugs, vcd_path=path)
        paths[view] = path
    return paths


def test_analyzer_cli_signoff(vcd_pair, capsys):
    code = analyzer_main([vcd_pair["rtl"], vcd_pair["bca"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "SIGNED OFF" in out
    assert "100.00%" in out


def test_analyzer_cli_detects_misalignment(vcd_pair, capsys):
    # LRU on a 2-initiator config: the stuck-recency bug changes winners.
    cfg_has_contention = analyzer_main([vcd_pair["rtl"], vcd_pair["bad"]])
    out = capsys.readouterr().out
    assert "verdict" in out
    # With two initiators contending under LRU the traces must diverge.
    assert cfg_has_contention == 1
    assert "NOT SIGNED OFF" in out


def test_analyzer_cli_diff_flag(vcd_pair, capsys):
    code = analyzer_main(["--diff", vcd_pair["rtl"], vcd_pair["bca"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "Transaction-level diff" in out


def test_analyzer_cli_ports_filter(vcd_pair, capsys):
    code = analyzer_main([vcd_pair["rtl"], vcd_pair["bca"],
                          "--ports", "tb.init0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tb.init0" in out
    assert "tb.targ0" not in out


def test_analyzer_cli_bad_inputs(vcd_pair, capsys):
    assert analyzer_main(["/nonexistent.vcd", vcd_pair["bca"]]) == 2
    assert analyzer_main([vcd_pair["rtl"], vcd_pair["bca"],
                          "--threshold", "2.0"]) == 2


def test_regression_cli_green_run(tmp_path, capsys):
    cfg = NodeConfig(n_initiators=2, n_targets=2, name="clirun")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--seeds", "1", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "SIGNED OFF" in out
    assert os.path.exists(tmp_path / "out" / "regression_summary.txt")


def test_regression_cli_flags_buggy_bca(tmp_path, capsys):
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="clibad")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--tests", "t06_lru_fairness",
        "--seeds", "1",
        "--bugs", "lru-recency-stuck",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT SIGNED OFF" in out


def test_regression_cli_missing_dir(tmp_path, capsys):
    assert regression_main([str(tmp_path / "ghost")]) == 2


def test_regression_cli_parallel_smoke(tmp_path, capsys):
    """A 2-config regression under --jobs 2 works inside pytest (no
    daemon/multiprocessing clash) and prints timing on stderr only, as
    one structured JSON record."""
    import json

    cfgs = [
        NodeConfig(n_initiators=2, n_targets=2, name="clipar_a"),
        NodeConfig(n_initiators=2, n_targets=1, name="clipar_b"),
    ]
    save_config_dir(cfgs, str(tmp_path / "cfgs"))
    code = regression_main([
        str(tmp_path / "cfgs"),
        "--workdir", str(tmp_path / "out"),
        "--seeds", "1", "2",
        "--jobs", "2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "SIGNED OFF" in captured.out
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["event"] == "batch.complete"
    assert record["jobs"] == 2
    assert record["n_runs"] == 96  # 2 configs x 12 tests x 2 seeds x 2 views
    assert record["all_signed_off"] is True
    assert record["wall_seconds"] > 0
    assert "jobs" not in captured.out
    assert os.path.exists(tmp_path / "out" / "regression_summary.txt")


@pytest.mark.parametrize("flags, named", [
    (["--jobs", "-1"], "--jobs"),
    (["--retry-backoff", "-1"], "--retry-backoff"),
    (["--seeds"], "--seeds"),
    (["--tests"], "--tests"),
], ids=["negative-jobs", "negative-retry-backoff", "empty-seeds",
        "empty-tests"])
def test_regression_cli_rejects_bad_flag(tmp_path, capsys, monkeypatch,
                                         flags, named):
    """A bad flag value is a usage error (exit 2, one ``error:`` line)
    caught before any configuration is linted or simulated."""
    import repro.regression.cli as cli

    def no_lint(*args, **kwargs):
        raise AssertionError("flag validation must precede the lint gate")

    monkeypatch.setattr(cli, "_lint_gate", no_lint)
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="clibadflag")
    save_config_dir([cfg], str(tmp_path / "cfgs"))
    code = regression_main([str(tmp_path / "cfgs"), *flags])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert named in err[0]
