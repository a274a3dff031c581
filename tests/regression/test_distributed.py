"""Tests for the leased-worker executor.

The coordinator's contract: a batch sharded across leased worker
processes produces artifacts **byte-identical** to a serial batch, at
any worker count, under any worker-death schedule — and when no worker
is reachable the batch finishes in-process with a single warning, never
a failure.

Faults are injected through the same ``REPRO_CHAOS`` environment hook
as the in-process tests (:mod:`repro.regression.chaos`); the variable
crosses the process boundary to the forked workers, which is exactly
how a farm scheduler's kill shows up — from outside the coordinator.
"""

import json
import os
import signal
import threading

import pytest

from repro.regression import (
    DistributedBatchExecutor,
    DistributedConfig,
    RegressionRunner,
    ResilienceConfig,
)
from repro.regression.chaos import CHAOS_ENV
from repro.regression.cli import main as regression_main
from repro.regression import worker as worker_module
from repro.regression.configs import save_config_dir
from repro.regression.parallel import TriageJob
from repro.regression.resilience import _Task
from repro.stbus import NodeConfig, ProtocolType
from repro.telemetry.session import TelemetryConfig

TESTS = ["t01_sanity_write_read", "t02_random_uniform"]
CONFIG_NAME = "dist_cfg"


def _configs():
    return [NodeConfig(n_initiators=2, n_targets=2,
                       protocol_type=ProtocolType.T3, name=CONFIG_NAME)]


def _cluster(**overrides):
    knobs = dict(lease_seconds=15.0, heartbeat_seconds=0.2,
                 spawn_timeout=30.0)
    knobs.update(overrides)
    return DistributedConfig(**knobs)


def _run(workdir, jobs=1, distributed=None, resilience=None, seeds=(1,),
         metrics=None):
    runner = RegressionRunner(
        _configs(), tests=TESTS, seeds=seeds, workdir=str(workdir),
        jobs=jobs, resilience=resilience or ResilienceConfig(backoff=0.0),
        distributed=distributed,
        telemetry=TelemetryConfig(metrics_out=metrics),
    )
    return runner.run()


def _snapshot(workdir):
    return {name: (workdir / name).read_bytes()
            for name in sorted(os.listdir(workdir))}


def _faults(metrics_path):
    with open(metrics_path) as handle:
        return json.load(handle)["batch"]["faults"]


@pytest.fixture()
def clean_ref(tmp_path):
    """A fault-free serial run: the byte-identity reference."""
    report = _run(tmp_path / "ref")
    return report, _snapshot(tmp_path / "ref")


# -- byte-identity ------------------------------------------------------


def test_distributed_matches_serial_byte_identically(tmp_path, clean_ref):
    ref_report, ref_snap = clean_ref
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2,
                  distributed=_cluster(),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] == 0
    assert faults["lease_reclaims"] == 0
    assert not faults["degraded_local"]


def test_single_worker_cluster_matches_serial(tmp_path, clean_ref):
    ref_report, ref_snap = clean_ref
    # ``jobs=1`` alone runs in-process; a deadline moves it onto one
    # leased worker.
    report = _run(tmp_path / "dist", distributed=_cluster(),
                  resilience=ResilienceConfig(backoff=0.0, run_timeout=60.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


# -- worker death and lease reclamation ---------------------------------


def test_worker_kill_mid_job_recovers_byte_identically(
        tmp_path, monkeypatch, clean_ref):
    """A farm scheduler OOM-kills one worker mid-job (``worker-kill``
    chaos = ``os._exit(43)`` inside the run): the coordinator sees the
    dead connection, charges one attempt, re-leases the job on a
    respawned worker, and the batch ends byte-identical."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"worker-kill:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2,
                  distributed=_cluster(),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["worker_deaths"] >= 1
    assert faults["retries"] >= 1
    assert not faults["degraded_local"]


def test_net_corrupt_frame_drops_worker_and_recovers(
        tmp_path, monkeypatch, clean_ref):
    """A corrupt result frame must poison the connection (never be
    half-trusted): the worker is dropped, the job re-leased."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV,
        f"net-corrupt-frame:{CONFIG_NAME}:t02_random_uniform:1:bca:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2,
                  distributed=_cluster(),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    assert _faults(metrics)["worker_deaths"] >= 1


def test_net_drop_loses_result_not_batch(tmp_path, monkeypatch, clean_ref):
    """A network partition right before the result frame: the work
    happened but the coordinator never learns — the lost worker's lease
    is reclaimed and the job re-executes."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"net-drop:{CONFIG_NAME}:t01_sanity_write_read:1:bca:1")
    report = _run(tmp_path / "dist", jobs=2,
                  distributed=_cluster(),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap


def test_silent_worker_lease_is_reclaimed(tmp_path, monkeypatch, clean_ref):
    """``net-delay`` sits on the result frame past the lease: the
    coordinator must reclaim the lease, re-run the job elsewhere, and
    discard the late (stale) result rather than double-complete."""
    ref_report, ref_snap = clean_ref
    monkeypatch.setenv(
        CHAOS_ENV, f"net-delay:{CONFIG_NAME}:t01_sanity_write_read:1:rtl:1")
    metrics = tmp_path / "metrics.json"
    report = _run(tmp_path / "dist", jobs=2,
                  distributed=_cluster(lease_seconds=1.0),
                  resilience=ResilienceConfig(max_retries=2, backoff=0.0),
                  metrics=str(metrics))
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    faults = _faults(metrics)
    assert faults["lease_reclaims"] >= 1
    assert faults["worker_deaths"] >= 1


def test_triage_worker_failures_are_booked_as_triage():
    """A triage job whose worker dies or times out is a triage failure,
    not a compare failure."""
    job = TriageJob(config=_configs()[0], test_name=TESTS[0], seed=1,
                    rtl_vcd="rtl.vcd", bca_vcd="bca.vcd", out_path=None,
                    bugs=frozenset(), reason="checkers-failed")
    task = _Task("triage", (0, TESTS[0], 1), job)
    executor = DistributedBatchExecutor(
        {}, jobs=2, compare_waveforms=True,
        config=ResilienceConfig(run_timeout=1.0, backoff=0.0))
    lost = executor._worker_lost_failure(task, "WorkerLost", "gone")
    timeout = executor._timeout_failure(task)
    assert lost.stage == timeout.stage == "triage"
    assert lost.view == timeout.view == "triage"
    for failure in (lost, timeout):
        executor._register_failure(task, failure)
    assert executor.faults.triage_failures == 2
    assert executor.faults.compare_failures == 0


# -- graceful degradation -----------------------------------------------


def _exit_at_once(*args):
    os._exit(1)


def test_unreachable_cluster_degrades_to_local(
        tmp_path, capfd, monkeypatch, clean_ref):
    """Every forked worker exits without dialing back: one warning
    line, then the batch runs in-process and stays byte-identical.
    Never a failure."""
    ref_report, ref_snap = clean_ref
    metrics = tmp_path / "metrics.json"
    monkeypatch.setattr(worker_module, "serve", _exit_at_once)
    cluster = _cluster(spawn_timeout=10.0)
    report = _run(tmp_path / "dist", jobs=2, distributed=cluster,
                  metrics=str(metrics))
    err = capfd.readouterr().err
    assert err.count("no distributed workers reachable") == 1
    assert report.render() == ref_report.render()
    assert _snapshot(tmp_path / "dist") == ref_snap
    assert _faults(metrics)["degraded_local"] is True


# -- CLI ----------------------------------------------------------------


def test_cli_rejects_bad_cluster_flags(tmp_path, capsys):
    assert regression_main(
        [str(tmp_path), "--cache-dir", str(tmp_path), "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


def test_cli_distributed_stdout_matches_serial(tmp_path, capsys):
    """The CLI's stdout and summary artifact are byte-identical between
    ``--jobs 1`` and ``--jobs 2`` (with a result cache on the side for
    the leased-worker batch)."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    outputs = {}
    for label, extra in (
            ("serial", ["--jobs", "1"]),
            ("dist", ["--jobs", "2",
                      "--cache-dir", str(tmp_path / "cache")])):
        code = regression_main([
            str(tmp_path / "cfgs"),
            "--workdir", str(tmp_path / label),
            "--tests", "t01_sanity_write_read",
            "--seeds", "1",
        ] + extra)
        outputs[label] = capsys.readouterr().out
        assert code == 1  # one test alone never reaches full coverage
    assert outputs["dist"] == outputs["serial"]
    assert _snapshot(tmp_path / "dist") == _snapshot(tmp_path / "serial")
    # The cache saw the batch: one store per (view) run.
    assert os.path.isdir(tmp_path / "cache" / "objects")


def test_cli_sigterm_aborts_like_sigint(tmp_path, capsys, monkeypatch):
    """A farm scheduler evicts with SIGTERM: same clean abort as Ctrl-C
    — exit 130 and a resume hint pointing at the journal."""
    save_config_dir(_configs(), str(tmp_path / "cfgs"))
    monkeypatch.setenv(
        CHAOS_ENV, f"hang:{CONFIG_NAME}:t01_sanity_write_read:1:rtl")
    timer = threading.Timer(
        1.0, os.kill, (os.getpid(), signal.SIGTERM))
    timer.start()
    try:
        code = regression_main([
            str(tmp_path / "cfgs"),
            "--workdir", str(tmp_path / "out"),
            "--tests", "t01_sanity_write_read",
            "--seeds", "1",
            "--journal", str(tmp_path / "journal.jsonl"),
        ])
    finally:
        timer.cancel()
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted: batch aborted" in err
    assert "--resume" in err
    # The handler was restored: SIGTERM is back to its previous
    # disposition for the embedding process.
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
