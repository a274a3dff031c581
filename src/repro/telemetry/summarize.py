"""Human-readable digest of a ``metrics.json`` batch rollup.

``python -m repro.telemetry summarize metrics.json`` renders the batch
headline, kernel counter totals, per-phase time split, worker-lane
utilization, the slowest runs, the hottest kernel processes (when the
batch ran with ``--time-processes``) and the worst-aligned comparisons
— the questions every perf PR starts from.

The output is a pure function of the file contents (no clocks, no
environment), so tests can pin it down byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List

from .session import METRICS_SCHEMA


class SummaryError(ValueError):
    """The metrics file is missing or malformed."""


def _run_label(run: Dict[str, object]) -> str:
    return (f"{run['config']} {run['test']} seed={run['seed']} "
            f"{run['view']}")


def _top_phases(run: Dict[str, object], limit: int = 2) -> str:
    phases = run.get("phase_seconds") or {}
    ranked = sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    if not ranked:
        return ""
    inner = ", ".join(f"{name} {seconds:.3f}s" for name, seconds in ranked)
    return f" ({inner})"


def summarize_metrics(payload: Dict[str, object], top: int = 5) -> str:
    """Render the digest for one metrics rollup dict."""
    if payload.get("schema") != METRICS_SCHEMA:
        raise SummaryError(
            f"not a telemetry metrics file (schema "
            f"{payload.get('schema')!r}, expected {METRICS_SCHEMA!r})"
        )
    batch = payload.get("batch", {})
    runs: List[dict] = list(payload.get("runs", []))
    compares: List[dict] = list(payload.get("compares", []))
    lines = [
        f"Batch: {batch.get('n_runs', 0)} runs over "
        f"{batch.get('n_configs', 0)} configuration(s), "
        f"jobs={batch.get('jobs', 1)}, "
        f"wall {batch.get('wall_seconds', 0.0):.2f}s, "
        f"{'all signed off' if batch.get('all_signed_off') else 'NOT signed off'}"
    ]
    kernel = batch.get("kernel_totals") or {}
    if kernel:
        lines.append("Kernel totals: " + "  ".join(
            f"{name}={value}" for name, value in sorted(kernel.items())
        ))
    phases = batch.get("phase_totals") or {}
    if phases:
        lines.append("Phase totals: " + "  ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(
                phases.items(), key=lambda kv: (-kv[1], kv[0]))
        ))
    workers = batch.get("workers") or {}
    if workers:
        lines.append("Worker utilization:")
        for label in sorted(workers, key=lambda l: (l == "main", l)):
            lane = workers[label]
            lines.append(
                f"  {label:<10} {lane.get('n_jobs', 0):3d} jobs  "
                f"{lane.get('busy_seconds', 0.0):8.2f}s busy  "
                f"{lane.get('utilization', 0.0) * 100:5.1f}%"
            )
    if runs:
        lines.append("Slowest runs:")
        ranked = sorted(
            runs, key=lambda r: (-float(r.get("wall_seconds", 0.0)),
                                 _run_label(r)),
        )[:top]
        for pos, run in enumerate(ranked, 1):
            lines.append(
                f"  {pos}. {float(run.get('wall_seconds', 0.0)):.3f}s  "
                f"{_run_label(run)}{_top_phases(run)}"
            )
    hot: Dict[str, List[float]] = {}
    for run in runs:
        for name, (calls, seconds) in (run.get("process_seconds") or {}).items():
            cell = hot.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
    if hot:
        lines.append("Hottest kernel processes:")
        ranked_hot = sorted(
            hot.items(), key=lambda kv: (-kv[1][1], kv[0]))[:top]
        for pos, (name, (calls, seconds)) in enumerate(ranked_hot, 1):
            lines.append(
                f"  {pos}. {seconds:.3f}s  {name} ({int(calls)} activations)"
            )
    elif runs:
        lines.append(
            "Hottest kernel processes: (no data — rerun with "
            "--time-processes)"
        )
    rated = [c for c in compares if "min_rate" in c]
    if rated:
        lines.append("Worst alignment:")
        ranked_cmp = sorted(
            rated, key=lambda c: (float(c["min_rate"]),
                                  c["config"], c["test"], c["seed"]),
        )[:top]
        for pos, cmp_entry in enumerate(ranked_cmp, 1):
            seconds = (
                f" (compare {float(cmp_entry['seconds']):.3f}s)"
                if "seconds" in cmp_entry else ""
            )
            lines.append(
                f"  {pos}. {float(cmp_entry['min_rate']) * 100:6.2f}%  "
                f"{cmp_entry['config']} {cmp_entry['test']} "
                f"seed={cmp_entry['seed']}{seconds}"
            )
    triages: List[dict] = list(payload.get("triages", []))
    if triages:
        counters = batch.get("triage_counters") or {}
        header = f"Triaged failures: {len(triages)}"
        if counters:
            header += " (" + "  ".join(
                f"{name}={value}"
                for name, value in sorted(counters.items())) + ")"
        lines.append(header)
        for row in triages[:top]:
            signal = row.get("first_divergence_signal")
            point = (
                f"{signal} @ cycle {row.get('first_divergence_cycle')}"
                if signal else "no pin-visible divergence"
            )
            suspect = row.get("top_suspect")
            tail = f"; top suspect {suspect}" if suspect else ""
            lines.append(
                f"  {row.get('config')} {row.get('test')} "
                f"seed={row.get('seed')} [{row.get('reason')}]: "
                f"{point}{tail}"
            )
        if len(triages) > top:
            lines.append(f"  ... and {len(triages) - top} more")
    return "\n".join(lines) + "\n"
