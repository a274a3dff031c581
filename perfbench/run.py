"""Canonical end-to-end regression benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regress_serial --seed 1 \
        --seconds 20 --trace 0

Every workload drives the same batch through the regression CLI
(``python -m repro.regression``): the six configurations in
``CONFIG_NAMES`` x all twelve tests x the workload seed, both views,
VCD dump and bus-accurate comparison.  Batches run one at a time (a
closed loop with one client), each in a fresh work directory, until
``--seconds`` have passed.  Each run except an untraced
``regress_serial`` one first makes an untimed serial *populate* batch
that fills a fresh result cache; it is the output reference every timed
batch must match byte for byte, and the cache ``regress_warm`` reads.
An untraced ``regress_serial`` run is its own reference.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced batches (the traced ones
through ``perfbench/traced_cli.py``) and prints the per-layer metrics.
The last stdout line is the result object; the line before it carries
provenance and the raw samples.  ``perfbench/spec.json`` describes
every workload and metric.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: The fixed configuration mix, by ``configuration_matrix()`` name: T2
#: and T3, 1x1 to 8x4, widths 32 to 128, a partial crossbar and a
#: programming port.
CONFIG_NAMES = (
    "cfg01_t2_3x2_w32_full_programmable_priority",
    "cfg08_t3_3x2_w32_full_lru",
    "cfg14_t2_2x2_w32_partial_round_robin",
    "cfg21_t2_2x2_w128_full_fixed_priority",
    "cfg26_t2_1x1_w32_full_lru",
    "cfg29_t2_8x4_w32_full_lru",
)
N_TESTS = 12

WORKLOADS = {
    "regress_serial": {"jobs": 1, "cache": False},
    "regress_jobs2": {"jobs": 2, "cache": False},
    "regress_warm": {"jobs": 1, "cache": True},
}

#: Timed batches per run even when ``--seconds`` is shorter; traced
#: runs make at least two untraced/traced pairs so the work counters
#: can be seen to repeat.
MIN_BATCHES = 3
MIN_PAIRS = 2
#: No new batch starts after this many seconds of the run, and every
#: process is killed at the hard limit: a run must end within 180 s.
START_LIMIT_S = 140.0
HARD_LIMIT_S = 170.0

ENTRY_RE = re.compile(
    r"^  (PASS|FAIL|ERROR|TIMEOUT|QUARANTINED) (\S+) (\S+) seed=(-?\d+)(.*)$")
SUMMARY_RE = re.compile(
    r"^  (\S+)\s+(?:NOT )?SIGNED OFF \(align\s+([\d.]+)%, "
    r"cov rtl\s+([\d.]+)% / bca\s+([\d.]+)%\)$")

#: Process-name prefixes (``Simulator.process_times()``) per environment
#: layer; ``tb.dut.*`` counts as ``rtl.proc_s`` or ``bca.proc_s`` by view.
PROCESS_GROUPS = (
    ("tb.bfm", "catg.bfm_s"),
    ("tb.prog_master", "catg.bfm_s"),
    ("tb.mem", "catg.target_s"),
    ("tb.mon_", "catg.monitor_s"),
    ("tb.chk_", "catg.checker_s"),
    ("tb.arb_chk", "catg.node_checks_s"),
    ("tb.coverage_probe", "catg.coverage_probe_s"),
)

#: Layer self-times that must add up to the traced wall time.
SELF_TIMES = (
    "python.startup_s", "lint.gate_s", "catg.generate_s", "rtl.proc_s",
    "bca.proc_s", "catg.bfm_s", "catg.target_s", "catg.monitor_s",
    "catg.checker_s", "catg.node_checks_s", "catg.coverage_probe_s",
    "catg.other_proc_s", "kernel.sched_s", "vcd.write_s", "vcd.parse_s",
    "analyzer.align_s", "cache.load_s", "cache.store_s",
    "regression.report_s", "regression.assemble_s",
)
#: Simulation-layer metrics; on a workload that does not simulate they
#: are read from the run's populate batch, the only one that does.
SIM_METRICS = (
    "rtl.proc_s", "bca.proc_s", "rtl.activations", "bca.activations",
    "catg.generate_s", "catg.bfm_s", "catg.target_s", "catg.monitor_s",
    "catg.checker_s", "catg.node_checks_s", "catg.coverage_probe_s",
    "kernel.sched_s", "kernel.cycles_per_s", "kernel.cycles",
    "kernel.delta_iterations", "kernel.process_activations",
    "kernel.signal_commits", "kernel.signal_toggles", "vcd.write_s",
    "vcd.bytes",
)
CACHE_READ_METRICS = ("cache.load_s", "cache.hits", "cache.misses",
                      "cache.hit_ratio")
#: Work counters that must repeat exactly for one seed.
DETERMINISTIC = (
    "kernel.cycles", "kernel.delta_iterations", "kernel.process_activations",
    "kernel.signal_commits", "kernel.signal_toggles", "vcd.bytes",
    "analyzer.port_cycles", "rtl.activations", "bca.activations",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def _interrupt(signum, frame):
    raise KeyboardInterrupt()


class Run:
    """One benchmark invocation: its work directory, deadline and
    the subprocesses it launches."""

    def __init__(self, workload, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.jobs = WORKLOADS[workload]["jobs"]
        self.uses_cache = WORKLOADS[workload]["cache"]
        self.started = time.perf_counter()
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        self.cfg_dir = os.path.join(self.dir, "cfg")
        self.cache_dir = os.path.join(self.dir, "cache")
        self.n_batches = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = SRC

    def elapsed(self):
        return time.perf_counter() - self.started

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- launching ------------------------------------------------------

    def launch(self, argv, tag):
        """Run ``argv`` to completion; return (exit code, wall seconds,
        launch epoch, rusage) with its stdout/stderr saved under
        ``tag``.  The rusage covers the process and every descendant it
        waited for."""
        out = os.path.join(self.dir, f"{tag}.out")
        err = os.path.join(self.dir, f"{tag}.err")
        remaining = HARD_LIMIT_S - self.elapsed()
        if remaining <= 1.0:
            raise BenchError("out of time before launching " + tag)
        with open(out, "wb") as out_f, open(err, "wb") as err_f:
            launched = time.time()
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out_f, stderr=err_f, start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM/SIGINT): take the batch down too.
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                _reap_group(proc.pid)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        return proc.returncode, wall, launched, usage

    def batch(self, populate=False, traced=False):
        """One batch: the populate batch (serial, filling the cache) or
        a batch of this run's workload.  Returns its measurements and
        output check."""
        self.n_batches += 1
        tag = f"b{self.n_batches:03d}"
        workdir = os.path.join(self.dir, tag)
        args = [self.cfg_dir, "--workdir", workdir, "--seeds", str(self.seed),
                "--jobs", "1" if populate else str(self.jobs)]
        if populate or self.uses_cache:
            args += ["--cache-dir", self.cache_dir]
        stats_dir = None
        if traced:
            stats_dir = os.path.join(self.dir, tag + ".stats")
            os.makedirs(stats_dir)
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    "batch", stats_dir, "--", *args,
                    "--metrics-out", os.path.join(stats_dir, "metrics.json"),
                    "--time-processes"]
        else:
            argv = [sys.executable, "-m", "repro.regression", *args]
        code, wall, launched, usage = self.launch(argv, tag)
        result = check_batch(workdir, code, os.path.join(self.dir, tag + ".err"))
        result.update(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            launched=launched,
            stats_dir=stats_dir,
        )
        if result["batch_wall_s"] is not None:
            result["setup_s"] = wall - result["batch_wall_s"]
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    def impact_index_seconds(self):
        stats_dir = os.path.join(self.dir, "impact.stats")
        os.makedirs(stats_dir)
        code, _, _, _ = self.launch(
            [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
             "impact", stats_dir, self.cfg_dir], "impact")
        if code != 0:
            raise BenchError("ImpactIndex timing failed")
        return merged_stats(stats_dir)[0]["analysis.impact_index_s"]


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid):
    """Kill what is left of the process group and wait until it is gone
    (a killed CLI can leave pool workers behind)."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# -- output check ---------------------------------------------------------------


def check_batch(workdir, code, err_path):
    """Check one batch's outputs.  Exit status 1 ("not signed off") is a
    valid outcome; any other nonzero status, a missing summary or
    report, an entry that is not PASS, unequal RTL/BCA coverage or an
    alignment below 100.00% fails the batch."""
    result = {"ok": False, "reason": None, "entries": len(CONFIG_NAMES) * N_TESTS,
              "bad_entries": 0, "digest": None, "align_min_pct": None,
              "func_cov_pct": None, "batch_wall_s": None}
    for line in _read_text(err_path).splitlines():
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("event") == "batch.complete":
                result["batch_wall_s"] = float(record["wall_seconds"])
    if code not in (0, 1):
        result["reason"] = f"CLI exit status {code}"
        return result
    if result["batch_wall_s"] is None:
        result["reason"] = "no batch.complete record on stderr"
        return result
    summary_path = os.path.join(workdir, "regression_summary.txt")
    if not os.path.exists(summary_path):
        result["reason"] = "missing regression_summary.txt"
        return result
    digest = hashlib.sha256()
    files = ["regression_summary.txt"] + [
        f"{name}__report.txt" for name in CONFIG_NAMES]
    for name in files:
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            result["reason"] = f"missing {name}"
            return result
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + data + b"\0")
    result["digest"] = digest.hexdigest()

    aligns, covs, seen = [], [], []
    for line in _read_text(summary_path).splitlines():
        match = SUMMARY_RE.match(line)
        if match:
            seen.append(match.group(1))
            aligns.append(float(match.group(2)))
            covs.append(min(float(match.group(3)), float(match.group(4))))
    if seen != list(CONFIG_NAMES):
        result["reason"] = f"summary lists configs {seen}"
        return result
    result["align_min_pct"] = min(aligns)
    result["func_cov_pct"] = min(covs)

    n_entries = bad = 0
    for name in CONFIG_NAMES:
        report = _read_text(os.path.join(workdir, f"{name}__report.txt"))
        for line in report.splitlines():
            match = ENTRY_RE.match(line)
            if not match or match.group(2) != name:
                continue
            n_entries += 1
            rest = match.group(5)
            if (match.group(1) != "PASS" or " cov_eq=yes" not in rest
                    or not rest.endswith(" align=100.00%")):
                bad += 1
    if n_entries != result["entries"]:
        result["reason"] = f"{n_entries} report entries, expected {result['entries']}"
        return result
    result["bad_entries"] = bad
    if bad:
        result["reason"] = f"{bad} entries not PASS at 100.00% alignment"
        return result
    result["ok"] = True
    return result


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


# -- per-layer attribution ---------------------------------------------------------


def merged_stats(stats_dir):
    """Sum the per-process wrapper totals of one traced invocation;
    returns them with the launcher's own record."""
    totals, launcher = {}, None
    for entry in sorted(os.listdir(stats_dir)):
        if not (entry.startswith("stats.") and entry.endswith(".json")):
            continue
        with open(os.path.join(stats_dir, entry), encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("role") == "launcher":
            launcher = payload
        for key, value in payload.items():
            if "." in key and isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    return totals, launcher


def layer_metrics(batch):
    """Per-layer numbers of one traced batch, from the launcher's wrapper
    totals and the CLI's own metrics rollup."""
    stats, launcher = merged_stats(batch["stats_dir"])
    with open(os.path.join(batch["stats_dir"], "metrics.json"),
              encoding="utf-8") as handle:
        rollup = json.load(handle)
    info = rollup["batch"]
    out = {name: 0.0 for name in SELF_TIMES}
    out.update({"rtl.activations": 0, "bca.activations": 0})
    for key in ("vcd.write_s", "vcd.parse_s", "analyzer.align_s",
                "cache.load_s", "cache.store_s", "lint.gate_s",
                "regression.assemble_s", "regression.report_s"):
        out[key] = stats.get(key, 0.0)
    out["analyzer.port_cycles"] = int(stats.get("analyzer.port_cycles", 0))
    out["python.startup_s"] = launcher["main_start"] - batch["launched"]

    env_seconds = proc_seconds = 0.0
    waits = []
    for run in rollup["runs"]:
        if "queue_wait_seconds" in run:
            waits.append(run["queue_wait_seconds"])
        if not run.get("process_seconds"):
            continue  # replayed from the cache: nothing was simulated
        env_seconds += run["wall_seconds"]
        for name, (calls, seconds) in run["process_seconds"].items():
            proc_seconds += seconds
            if name.startswith("tb.dut."):
                out[f"{run['view']}.proc_s"] += seconds
                out[f"{run['view']}.activations"] += calls
                continue
            layer = next((metric for prefix, metric in PROCESS_GROUPS
                          if name.startswith(prefix)), "catg.other_proc_s")
            out[layer] += seconds
    waits += [c["queue_wait_seconds"] for c in rollup["compares"]
              if "queue_wait_seconds" in c]
    out["kernel.sched_s"] = env_seconds - proc_seconds - out["vcd.write_s"]
    phases = info["phase_totals"]
    out["catg.generate_s"] = phases.get("generate", 0.0)
    out["regression.report_s"] += phases.get("report", 0.0)

    kernel = info["kernel_totals"]
    for name in ("cycles", "delta_iterations", "process_activations",
                 "signal_commits", "signal_toggles"):
        out[f"kernel.{name}"] = kernel.get(name, 0)
    out["vcd.bytes"] = kernel.get("vcd_bytes", 0)
    out["kernel.cycles_per_s"] = (
        out["kernel.cycles"] / env_seconds if env_seconds else 0.0)

    cache = info.get("cache", {})
    out["cache.hits"] = cache.get("hits", 0)
    out["cache.misses"] = cache.get("misses", 0)
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0

    out["regression.queue_wait_s.p50"] = statistics.median(waits)
    out["regression.queue_wait_s.p90"] = statistics.quantiles(
        waits, n=10, method="inclusive")[8]
    lanes = info["workers"]
    workers = [lane["utilization"] for name, lane in lanes.items()
               if name.startswith("worker-")]
    out["regression.worker_util"] = (
        statistics.mean(workers) if workers else lanes["main"]["utilization"])
    faults = info["faults"]
    for name in ("retries", "crashes", "quarantined"):
        out[f"regression.{name}"] = faults[name]

    attributed = sum(out[name] for name in SELF_TIMES)
    out["trace.wall_s"] = batch["wall_s"]
    out["unattributed_s"] = batch["wall_s"] - attributed
    out["trace.attributed_share"] = attributed / batch["wall_s"]
    return out


# -- provenance ------------------------------------------------------------------


def calibration_ms():
    """Best of three timings of a fixed pure-Python loop: a host-speed
    reference printed beside every result, so drift between two sets
    of runs shows."""
    best = None
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        took = (time.perf_counter() - started) * 1000.0
        best = took if best is None else min(best, took)
    return best


def provenance(args, calib_ms):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 \
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                source.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": list(CONFIG_NAMES),
        "calibration_ms": calib_ms,
    }


# -- main ------------------------------------------------------------------------


def load_declared():
    """Metric names and units from BENCHMARK.json, checked against the
    descriptions in spec.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    with open(os.path.join(BENCH_DIR, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {}
    for group in ("end_to_end", "per_layer"):
        units[group] = {m["name"]: m["unit"] for m in declared[group]}
        described = set(spec[group])
        if described != set(units[group]):
            raise BenchError(f"spec.json {group} differs from BENCHMARK.json: "
                             f"{sorted(described ^ set(units[group]))}")
    if set(spec["workloads"]) != set(WORKLOADS) or {
            w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        raise BenchError("workload names differ between run.py, spec.json "
                         "and BENCHMARK.json")
    return units


def load_pinned():
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def timed_loop(run, body, minimum):
    """Call ``body()`` until ``--seconds`` have passed (at least
    ``minimum`` times), never starting one after START_LIMIT_S."""
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < run.seconds:
        if count and run.elapsed() > START_LIMIT_S:
            break
        body()
        count += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        raise BenchError("--seconds must be > 0")
    if not os.path.isdir(os.path.join(SRC, "repro", "regression")):
        raise BenchError(f"no program to measure: {SRC}/repro missing")
    units = load_declared()
    pinned = load_pinned()
    calib = calibration_ms()

    run = Run(args.workload, args.seed, args.seconds)
    try:
        sys.path.insert(0, SRC)
        from repro.regression.configs import (
            configuration_matrix,
            save_config_dir,
        )

        by_name = {config.name: config for config in configuration_matrix()}
        save_config_dir([by_name[name] for name in CONFIG_NAMES], run.cfg_dir)

        traced = bool(args.trace)
        problems = []
        timed, pairs = [], []
        populate = None
        if traced or run.jobs > 1 or run.uses_cache:
            populate = run.batch(populate=True, traced=traced)
            if not populate["ok"]:
                problems.append(f"populate batch: {populate['reason']}")

        def one_batch():
            timed.append(run.batch())

        def one_pair():
            plain = run.batch()
            traced_batch = run.batch(traced=True)
            timed.extend((plain, traced_batch))
            pairs.append((plain, traced_batch))

        if traced:
            timed_loop(run, one_pair, MIN_PAIRS)
        else:
            timed_loop(run, one_batch, MIN_BATCHES)
        # The untraced serial workload needs no populate batch: its first
        # timed batch is the same serial batch without a cache.
        reference = (populate or timed[0])["digest"]
        expected = pinned["digests"].get(str(args.seed))
        if expected is not None and reference != expected:
            problems.append(f"seed {args.seed} outputs differ from the pinned "
                            f"digest ({reference} != {expected})")

        attempted = failed = 0
        for batch in timed:
            attempted += batch["entries"]
            if not batch["ok"]:
                failed += batch["entries"] if batch["bad_entries"] == 0 \
                    else batch["bad_entries"]
                problems.append(batch["reason"])
            elif batch["digest"] != reference:
                failed += batch["entries"]
                problems.append("outputs differ from the reference batch")

        if traced:
            metrics, detail = traced_metrics(run, populate, pairs, problems)
            group = "per_layer"
        else:
            metrics, detail = e2e_metrics(timed)
            group = "end_to_end"
        if set(metrics) != set(units[group]):
            raise BenchError(f"computed {group} metrics differ from "
                             f"BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units[group]))}")
        for problem in dict.fromkeys(problems):
            print(f"perfbench: {problem}", file=sys.stderr)
        print(json.dumps({"provenance": provenance(args, calib),
                          "reference_digest": reference,
                          "samples": detail, "problems": problems}))
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[group][name]}
                        for name, value in sorted(metrics.items())},
        }))
    finally:
        run.close()
    return 0


def e2e_metrics(batches):
    ok = [b for b in batches if b["ok"]] or batches
    samples = {name: [b[name] for b in ok if b.get(name) is not None]
               for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    # A run whose every batch failed still reports (correct: false).
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in samples.items()}
    aligns = [b["align_min_pct"] for b in ok if b["align_min_pct"] is not None]
    covs = [b["func_cov_pct"] for b in ok if b["func_cov_pct"] is not None]
    metrics["align_min_pct"] = min(aligns) if aligns else 0.0
    metrics["func_cov_pct"] = min(covs) if covs else 0.0
    samples["n_batches"] = len(batches)
    return metrics, samples


def _median(values):
    """Median that keeps whole-number counters whole."""
    if all(isinstance(value, int) for value in values):
        return statistics.median_low(values)
    return statistics.median(values)


def traced_metrics(run, populate, pairs, problems):
    """Per-layer metrics: medians over the traced batches of the run.
    Simulation layers on a workload that replays everything from the
    cache, and the cache layer on one without a cache, are read from
    the traced populate batch instead; ``cache.store_s`` always is."""
    if not populate["ok"] or not all(traced["ok"] for _, traced in pairs):
        raise BenchError("a traced batch failed: " + "; ".join(problems))
    reference = layer_metrics(populate)
    layers = [layer_metrics(traced) for _, traced in pairs]
    for name in DETERMINISTIC:
        if run.uses_cache and name.startswith(("rtl.", "bca.")):
            continue  # nothing is simulated on a warm batch
        values = {layer[name] for layer in layers} | {reference[name]}
        if len(values) != 1:
            problems.append(f"{name} differs between traced batches: "
                            f"{sorted(values)}")
    if run.uses_cache:
        for layer in layers:
            if layer["cache.misses"] or not layer["cache.hits"]:
                problems.append("warm batch missed the cache")

    metrics = {name: _median([layer[name] for layer in layers])
               for name in layers[0]
               if name not in ("catg.other_proc_s", "trace.attributed_share")}
    if run.uses_cache:
        for name in SIM_METRICS:
            metrics[name] = reference[name]
    else:
        for name in CACHE_READ_METRICS:
            metrics[name] = reference[name]
    metrics["cache.store_s"] = reference["cache.store_s"]
    overheads = [
        (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"] * 100.0
        for plain, traced in pairs]
    metrics["trace.overhead_pct"] = statistics.median(overheads)
    metrics["analysis.impact_index_s"] = run.impact_index_seconds()
    shares = [layer["trace.attributed_share"] for layer in layers]
    if run.jobs == 1 and not run.uses_cache \
            and any(abs(share - 1.0) > 0.10 for share in shares):
        print("perfbench: layer self-times miss the traced wall time by "
              f"more than 10%: shares {shares}", file=sys.stderr)
    detail = {
        "n_pairs": len(pairs),
        "attributed_share": shares,
        "overhead_pct": overheads,
        "populate": {k: reference[k] for k in sorted(reference)},
    }
    return metrics, detail


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        sys.exit(130)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
