"""Pinned kernel work counters and dump bytes for one fixed entry.

The simulation's deterministic work — toggles, delta iterations,
process activations, VCD bytes and the VCD itself — is a function of
the design and the stimulus, not of how the kernel schedules writes.
These pins catch a kernel or environment change that alters any of it.
``signal_commits`` counts only writes that entered the commit queue; a
drive of the committed value claims the signal without queueing, so on
this testbench every queued write toggles its signal.
"""

import gc
import hashlib

import pytest

from repro.catg.env import VerificationEnv, run_test
from repro.regression.configs import configuration_matrix
from repro.regression.testcases import build_test

CONFIG = "cfg26_t2_1x1_w32_full_lru"

#: cfg26 x t02_random_uniform x seed 1, identical in both views.
EXPECTED = {
    "cycles": 260,
    "delta_iterations": 327,
    "process_activations": 3120,
    "signal_toggles": 2112,
    "vcd_bytes": 23599,
}
VCD_SHA256 = "50464599aa5b5f93ecaabb303e3e666709c0e91cd974843799d12871591c6a6e"


def _entry():
    config = {c.name: c for c in configuration_matrix()}[CONFIG]
    return config, build_test("t02_random_uniform", config, 1)


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_work_counters_and_dump_are_pinned(tmp_path, view):
    config, test = _entry()
    vcd = tmp_path / f"{view}.vcd"
    result = run_test(config, test, view=view, vcd_path=str(vcd))
    assert result.passed
    stats = result.kernel_stats
    assert {key: stats[key] for key in EXPECTED} == EXPECTED
    assert stats["signal_commits"] == stats["signal_toggles"]
    assert hashlib.sha256(vcd.read_bytes()).hexdigest() == VCD_SHA256


def test_finished_run_leaves_no_cyclic_garbage(tmp_path):
    # run_test releases the environment: the simulator, its modules and
    # their bound processes are freed by reference counting, not left
    # for a full collection.
    config, test = _entry()
    gc.collect()
    gc.disable()
    try:
        run_test(config, test, view="rtl", vcd_path=str(tmp_path / "x.vcd"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_release_keeps_the_result_and_unlinks_the_design(tmp_path):
    config, test = _entry()
    env = VerificationEnv(config, view="bca",
                          vcd_path=str(tmp_path / "x.vcd"))
    env.load_test(test)
    result = env.run()
    port_req = env.init_ports[0].req
    env.release()
    assert result.passed and result.kernel_stats["cycles"] == 260
    assert env.top.children == []
    assert env.sim.signals == [] and env.sim.clocked_processes == []
    assert port_req.drivers == ()
    assert env.sim.stats_snapshot()["cycles"] == 260
