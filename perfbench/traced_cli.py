"""Traced launcher for the regression CLI (the benchmark's ``--trace 1``).

Usage::

    python3 perfbench/traced_cli.py batch STATS_DIR -- <repro.regression args>
    python3 perfbench/traced_cli.py impact STATS_DIR CONFIG_DIR

``batch`` installs class-level timing wrappers around the public calls
of the layers the regression crosses, then runs
``repro.regression.cli.main`` in this process, so the traced batch is
the same CLI the untraced benchmark launches with ``python -m``.  Pool
workers are forked after the wrappers are installed and inherit them.
Every process writes its own totals to ``STATS_DIR/stats.<pid>.json``:
the launcher once at exit, a worker after each run or comparison it
finishes (a pool worker never runs ``atexit`` hooks).

``impact`` times ``ImpactIndex`` over the config directory: it is off
the default batch path, so it is measured on its own.

Process-body, phase and queue timings are not wrapped here: they come
from the CLI's own ``--metrics-out``/``--time-processes`` rollup.
"""

import json
import os
import sys
import time

#: Wall-clock launcher entry, before any import of the program.
ENTRY = time.time()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

PARENT_PID = os.getpid()


class Stats:
    """Per-process accumulated seconds and counts, keyed by metric name."""

    def __init__(self, stats_dir):
        self.stats_dir = stats_dir
        self.values = {}

    def add(self, name, value):
        self.values[name] = self.values.get(name, 0) + value

    def dump(self, **extra):
        payload = dict(self.values, pid=os.getpid(), **extra)
        path = os.path.join(self.stats_dir, f"stats.{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    def dump_if_worker(self):
        if os.getpid() != PARENT_PID:
            self.dump()


def timed(stats, name, func, flush=False):
    """Wrap ``func`` so its wall time accumulates into ``stats[name]``."""
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            stats.add(name, time.perf_counter() - started)
            if flush:
                stats.dump_if_worker()
    wrapper.__wrapped__ = func
    return wrapper


def install(stats):
    """Wrap the layer entry points the regression batch calls."""
    import repro.lint
    from repro.cache import ResultCache
    from repro.regression import parallel
    from repro.regression.runner import RegressionReport, RegressionRunner
    from repro.vcd import parser as vcd_parser
    from repro.vcd.writer import VcdWriter

    VcdWriter.sample = timed(stats, "vcd.write_s", VcdWriter.sample)
    VcdWriter.sample_changes = timed(
        stats, "vcd.write_s", VcdWriter.sample_changes)
    VcdWriter.finish = timed(stats, "vcd.write_s", VcdWriter.finish,
                             flush=True)
    ResultCache.load = timed(stats, "cache.load_s", ResultCache.load)
    ResultCache.store = timed(stats, "cache.store_s", ResultCache.store)
    # The CLI's lint gate imports lint_config from the package at call
    # time, so patching the package attribute reaches it.
    repro.lint.lint_config = timed(stats, "lint.gate_s",
                                   repro.lint.lint_config)
    RegressionRunner._assemble = timed(stats, "regression.assemble_s",
                                       RegressionRunner._assemble)
    RegressionReport.render = timed(stats, "regression.report_s",
                                    RegressionReport.render)

    compare = parallel.compare_vcds

    def split_compare(rtl_vcd, bca_vcd, *args, **kwargs):
        # Parse first, then align the parsed files: the same result as
        # compare_vcds(path, path), with the two stages timed apart.
        started = time.perf_counter()
        parsed_a = vcd_parser.parse_vcd(rtl_vcd)
        parsed_b = vcd_parser.parse_vcd(bca_vcd)
        parsed = time.perf_counter()
        report = compare(parsed_a, parsed_b, *args, **kwargs)
        stats.add("vcd.parse_s", parsed - started)
        stats.add("analyzer.align_s", time.perf_counter() - parsed)
        stats.add("analyzer.port_cycles", sum(
            port.total_cycles for port in report.ports.values()))
        stats.dump_if_worker()
        return report

    parallel.compare_vcds = split_compare


def run_batch(stats_dir, cli_args):
    stats = Stats(stats_dir)
    install(stats)
    from repro.regression.cli import main

    started = time.time()
    code = 1
    try:
        code = main(cli_args)
    finally:
        stats.dump(role="launcher", entry=ENTRY, main_start=started,
                   main_end=time.time())
    return code


def run_impact(stats_dir, config_dir):
    from repro.analysis.impact import ImpactIndex
    from repro.regression.configs import load_config_dir

    configs = load_config_dir(config_dir)
    stats = Stats(stats_dir)
    started = time.perf_counter()
    ImpactIndex(configs)
    stats.add("analysis.impact_index_s", time.perf_counter() - started)
    stats.dump(role="impact")
    return 0


def main(argv):
    if len(argv) >= 3 and argv[0] == "batch" and argv[2] == "--":
        return run_batch(argv[1], argv[3:])
    if len(argv) == 3 and argv[0] == "impact":
        return run_impact(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
