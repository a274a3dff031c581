"""E5 — Section 1: "The fast simulation of BCA models permits to fast
find the optimized configuration."

Measures simulated cycles per wall-clock second for the three ways a node
model can run:

* RTL view, pin-level (the "HDL simulation" of the paper),
* BCA view, pin-level (co-simulated for verification/alignment), and
* BCA view, standalone fast mode (the "native SystemC" execution that
  motivates BCA-based architecture exploration).

Expected shape: standalone BCA is the fastest; pin-level BCA is at least
as fast as pin-level RTL.  (The paper quotes no factor; the 2004 gap
between compiled SystemC and event-driven RTL simulation was larger than
a pure-Python kernel can show.)
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.bca import BcaNode
from repro.bca.fast import FastBcaSim
from repro.catg.bfm import InitiatorBfm
from repro.catg.target import TargetHarness
from repro.kernel import Module, Simulator
from repro.regression import RegressionRunner
from repro.regression.testcases import build_test
from repro.rtl import RtlNode
from repro.stbus import ArbitrationPolicy, NodeConfig, StbusPort

CONFIG = NodeConfig(n_initiators=4, n_targets=4,
                    arbitration=ArbitrationPolicy.LRU, name="speed")
REPEAT = 8  # program repetitions to get a few thousand cycles per run


def make_pin_tb(node_cls):
    test = build_test("t10_hotspot", CONFIG, 1)
    sim = Simulator()
    top = Module(sim, "tb")
    init_ports = [StbusPort(top, f"init{i}", 32) for i in range(4)]
    targ_ports = [StbusPort(top, f"targ{t}", 32) for t in range(4)]
    node_cls(sim, "dut", CONFIG, init_ports, targ_ports, parent=top)
    bfms = []
    for i in range(4):
        bfm = InitiatorBfm(sim, f"bfm{i}", init_ports[i],
                           CONFIG.protocol_type, parent=top)
        bfm.load_program(list(test.programs[i]) * REPEAT)
        bfms.append(bfm)
    for t in range(4):
        TargetHarness(sim, f"mem{t}", targ_ports[t], CONFIG.protocol_type,
                      latency=test.target_latencies[t], seed=0xC0DE + t,
                      parent=top)
    sim.elaborate()
    return sim, bfms


#: kernel counter totals of the last pin-level run per view, keyed
#: "rtl" / "bca_pin"; persisted in the JSON alongside the rates so the
#: recorded cycles/s always come with the work they measured.
_KERNEL_TOTALS = {}

_VIEW_LABEL = {"RtlNode": "rtl", "BcaNode": "bca_pin"}


def run_pin(node_cls):
    sim, bfms = make_pin_tb(node_cls)
    cycles = 0
    while not all(b.done for b in bfms) and cycles < 100000:
        sim.step()
        cycles += 1
    for _ in range(50):
        sim.step()
    _KERNEL_TOTALS[_VIEW_LABEL[node_cls.__name__]] = sim.stats_snapshot()
    return cycles


def run_fast_mode():
    test = build_test("t10_hotspot", CONFIG, 1)
    test.programs = [list(p) * REPEAT for p in test.programs]
    sim = FastBcaSim(CONFIG, test.programs, test.target_latencies)
    return sim.run().cycles


#: filled by the timed benchmarks, summarized by the final test
_RESULTS = {}


def test_e5_rtl_pin_level_speed(benchmark):
    cycles = benchmark(run_pin, RtlNode)
    _RESULTS["rtl"] = cycles / benchmark.stats["mean"]
    benchmark.extra_info["cycles_per_second"] = _RESULTS["rtl"]


def test_e5_bca_pin_level_speed(benchmark):
    cycles = benchmark(run_pin, BcaNode)
    _RESULTS["bca_pin"] = cycles / benchmark.stats["mean"]
    benchmark.extra_info["cycles_per_second"] = _RESULTS["bca_pin"]


def test_e5_bca_standalone_speed(benchmark):
    cycles = benchmark(run_fast_mode)
    _RESULTS["bca_fast"] = cycles / benchmark.stats["mean"]
    benchmark.extra_info["cycles_per_second"] = _RESULTS["bca_fast"]


def test_e5_speed_ordering(benchmark):
    def summarize():
        if not {"rtl", "bca_pin", "bca_fast"}.issubset(_RESULTS):
            pytest.skip("run the three E5 speed benchmarks first")
        return dict(_RESULTS)

    rates = benchmark.pedantic(summarize, rounds=1, iterations=1)
    print()
    print(f"[E5] RTL pin-level:   {rates['rtl']:9.0f} cycles/s")
    print(f"[E5] BCA pin-level:   {rates['bca_pin']:9.0f} cycles/s "
          f"({rates['bca_pin'] / rates['rtl']:.2f}x RTL)")
    print(f"[E5] BCA standalone:  {rates['bca_fast']:9.0f} cycles/s "
          f"({rates['bca_fast'] / rates['rtl']:.2f}x RTL)")
    print("[E5] paper: BCA simulation is fast enough for architecture "
          "exploration; shape reproduced (standalone BCA fastest)")
    # The shape: standalone BCA beats pin-level RTL decisively; pin-level
    # BCA is not slower than pin-level RTL (tolerate 10% timing noise).
    assert rates["bca_fast"] > rates["rtl"] * 1.3
    assert rates["bca_pin"] > rates["rtl"] * 0.9


# ---------------------------------------------------------------------------
# Regression throughput: serial vs --jobs N (the parallel batch engine).
# ---------------------------------------------------------------------------

#: Kernel cycles/s of the seed commit, measured with this same harness
#: before the fast-path/VCD work landed (median of 10 run_pin(RtlNode)
#: repetitions on the reference container).  Kept here so the JSON always
#: records what the optimization is being compared against.
PRE_PR_BASELINE = {"rtl_pin_cycles_per_second": 3862}

REG_CONFIGS = [
    NodeConfig(n_initiators=2, n_targets=2, name="bench_a"),
    NodeConfig(n_initiators=3, n_targets=2,
               arbitration=ArbitrationPolicy.LRU, name="bench_b"),
]
REG_TESTS = ["t01_sanity_write_read", "t02_random_uniform",
             "t06_lru_fairness", "t10_hotspot"]


def _available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_regression(jobs, workdir):
    runner = RegressionRunner(REG_CONFIGS, tests=REG_TESTS, seeds=(1,),
                              workdir=str(workdir), jobs=jobs)
    return runner.run()


def _median_wall(jobs, tmp_path, rounds=3):
    times = []
    for i in range(rounds):
        workdir = tmp_path / f"j{jobs}_r{i}"
        start = time.perf_counter()
        report = _run_regression(jobs, workdir)
        times.append(time.perf_counter() - start)
        assert report.all_signed_off is not None  # report assembled
    return statistics.median(times), report


def test_e5_regression_throughput(tmp_path):
    """Serial vs parallel batch over the same work list.

    The speedup assertion is core-count-aware: on a single-CPU box a
    process pool cannot beat serial, so we only require that it is not
    pathologically slower; with four or more CPUs we require a real
    (>= 2x) speedup, per the engine's design goal.
    """
    cpus = _available_cpus()
    jobs = min(4, cpus) if cpus > 1 else 2
    serial_s, serial_report = _median_wall(1, tmp_path)
    parallel_s, parallel_report = _median_wall(jobs, tmp_path)
    n_runs = serial_report.n_runs
    _RESULTS["regression_serial_runs_per_second"] = n_runs / serial_s
    _RESULTS["regression_parallel_runs_per_second"] = n_runs / parallel_s
    _RESULTS["regression_jobs"] = jobs
    _RESULTS["cpus"] = cpus
    print()
    print(f"[E5] regression serial:   {n_runs / serial_s:6.1f} runs/s "
          f"({serial_s:.2f}s for {n_runs} runs)")
    print(f"[E5] regression jobs={jobs}:   {n_runs / parallel_s:6.1f} runs/s "
          f"({parallel_s:.2f}s, {cpus} cpu(s))")
    # Observability first: identical summary regardless of jobs.
    assert serial_report.render() == parallel_report.render()
    if cpus >= 4:
        assert serial_s / parallel_s >= 2.0
    elif cpus >= 2:
        assert serial_s / parallel_s >= 1.2
    else:
        # One CPU: the pool only adds overhead; bound it.
        assert parallel_s <= serial_s * 2.0


def test_e5_record_results_json():
    """Persist the measured rates next to the benchmarks for the docs.

    Runs last (pytest executes this file in order); regenerate with
    ``PYTHONPATH=src python -m pytest benchmarks/test_bench_sim_speed.py``.
    """
    required = {"regression_serial_runs_per_second",
                "regression_parallel_runs_per_second"}
    if not required.issubset(_RESULTS):
        pytest.skip("run the throughput benchmarks first")
    payload = {
        "harness": "benchmarks/test_bench_sim_speed.py",
        "pre_pr_baseline": PRE_PR_BASELINE,
        "results": {
            key: (round(value, 1) if isinstance(value, float) else value)
            for key, value in sorted(_RESULTS.items())
        },
        "kernel_totals": {
            view: dict(stats)
            for view, stats in sorted(_KERNEL_TOTALS.items())
        },
    }
    path = Path(__file__).with_name("BENCH_sim_speed.json")
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["results"]
