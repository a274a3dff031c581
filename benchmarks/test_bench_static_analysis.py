"""Static-analysis benchmark: lift, equivalence-proof and UNR wall
times over the configuration matrix.

The symbolic pass only earns its place in the flow if it stays cheap
next to simulation: a functional RTL≡BCA proof per port, for every
matrix configuration, should cost seconds — not the minutes a seeded
regression of the same matrix takes.  This harness times the three
engines separately over the full matrix and persists the rates to
``BENCH_static_analysis.json``.

Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_static_analysis.py -q
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis.symbolic.equiv import check_functional_equivalence
from repro.analysis.symbolic.lift import lift_simulator
from repro.analysis.unr import analyze_unreachability
from repro.lint.runner import build_env
from repro.regression.configs import configuration_matrix

MATRIX = configuration_matrix()

#: filled by the timed phases, persisted by the final test
_RESULTS = {}


def test_bench_lift_phase():
    """Lift every process of every full environment, both views."""
    envs = [(config, view)
            for config in MATRIX for view in ("rtl", "bca")]
    built = []
    start = time.perf_counter()
    for config, view in envs:
        built.append(build_env(config, view).sim)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    n_processes = n_clean_assigns = 0
    for sim in built:
        report = lift_simulator(sim)
        n_processes += report.n_processes
        n_clean_assigns += sum(
            1 for proc in report.processes
            for assign in proc.assigns if assign.clean
        )
    lift_s = time.perf_counter() - start
    _RESULTS.update({
        "environments_built": len(envs),
        "env_build_seconds": round(build_s, 3),
        "processes_lifted": n_processes,
        "clean_assignments": n_clean_assigns,
        "lift_seconds": round(lift_s, 3),
        "lift_processes_per_second": round(n_processes / lift_s, 1),
    })
    print(f"\n[bench] lift: {n_processes} processes in {lift_s:.2f}s "
          f"({len(envs)} envs built in {build_s:.2f}s)")
    assert n_processes > 0
    # Seconds for the full matrix (generous ceiling for slow CI).
    assert lift_s < 60.0


def test_bench_equivalence_phase():
    """Per-port functional proof (both engines) over the full matrix."""
    start = time.perf_counter()
    n_ports = n_points = n_cycles = 0
    for config in MATRIX:
        ports, findings = check_functional_equivalence(config)
        assert all(p.verdict == "EQUIVALENT" for p in ports), config.name
        n_ports += len(ports)
        n_points += sum(p.comb_points for p in ports)
        n_cycles += sum(p.lockstep_cycles for p in ports)
    equiv_s = time.perf_counter() - start
    _RESULTS.update({
        "configs_proven": len(MATRIX),
        "ports_proven": n_ports,
        "comb_points_enumerated": n_points,
        "lockstep_port_cycles": n_cycles,
        "equivalence_seconds": round(equiv_s, 3),
        "equivalence_ports_per_second": round(n_ports / equiv_s, 1),
    })
    print(f"[bench] equivalence: {n_ports} ports over {len(MATRIX)} "
          f"configs in {equiv_s:.2f}s ({n_points} enumerated points, "
          f"{n_cycles} lockstep port-cycles)")
    # Seconds, not minutes: the static proof must be far cheaper than a
    # regression of the same matrix (generous ceiling for slow CI).
    assert equiv_s < 120.0


def test_bench_reachability_phase():
    """The single exact UNR pass, full matrix."""
    start = time.perf_counter()
    n_bins = 0
    for config in MATRIX:
        report = analyze_unreachability(config)
        assert set(report.counts()) == {"REACHABLE", "UNREACHABLE"}
        n_bins += len(report.verdicts)
    reach_s = time.perf_counter() - start
    _RESULTS.update({
        "unr_bins_decided": n_bins,
        "reachability_seconds": round(reach_s, 3),
        "reachability_bins_per_second": round(n_bins / reach_s, 1),
    })
    print(f"[bench] reachability: {n_bins} bins in {reach_s:.2f}s")
    assert reach_s < 30.0


def test_bench_record_results_json():
    """Persist the measured rates; runs last (file executes in order)."""
    required = {"lift_seconds", "equivalence_seconds",
                "reachability_seconds"}
    if not required.issubset(_RESULTS):
        pytest.skip("run the three phase benchmarks first")
    payload = {
        "harness": "benchmarks/test_bench_static_analysis.py",
        "matrix_size": len(MATRIX),
        "results": dict(sorted(_RESULTS.items())),
    }
    path = Path(__file__).with_name("BENCH_static_analysis.json")
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["results"]
