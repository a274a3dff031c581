"""Fault-tolerant execution layer for the regression batch engine.

The paper's regression tool earns its keep overnight: a batch across
many configurations and seeds must *finish with a usable report* even
when individual runs misbehave.  A batch executes on one of two paths —
in-process serial (``jobs=1``, no deadline; this module) or N forked
lease-holding workers (:mod:`repro.regression.distributed`) — and both
share the protection implemented here:

1. **Run-level crash isolation** — every run/compare/triage job executes
   under a guard that converts any exception (including a truncated or
   corrupt VCD discovered in the compare stage) into a structured,
   picklable :class:`RunFailure` carried into the report instead of
   aborting the batch.  A worker that dies outright, or outlives the
   ``run_timeout`` deadline, is charged to the one job its lease names.
2. **Bounded retry with backoff + quarantine** — failed jobs are
   retried up to ``max_retries`` times with exponential backoff; jobs
   that fail repeatedly are quarantined (listed in the report with
   their failure history).
3. **Journaled checkpoint/resume** — an append-only JSONL journal
   records each completed run with its artifact digests; ``resume``
   replays completed runs from the journal and only executes the
   remainder, so an interrupted batch (Ctrl-C, OOM, machine crash)
   continues instead of restarting.

The invariant throughout: a fault-free batch produces byte-identical
report artifacts on either path, for any ``jobs=N``, with or without
resume.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
import pickle
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ioutil import file_digest
from . import chaos
from .parallel import (
    CompareJob,
    EntryKey,
    RunJob,
    RunKey,
    TriageJob,
    execute_compare_job,
    execute_run_job,
    execute_triage_job,
)

#: Ceiling on a single retry backoff delay.
_MAX_BACKOFF = 30.0

#: Entry statuses a regression report can now carry.
STATUSES = ("PASS", "FAIL", "ERROR", "TIMEOUT", "QUARANTINED")


# ---------------------------------------------------------------------------
# Structured failures


@dataclass(frozen=True)
class RunFailure:
    """A failed run or comparison, reduced to plain picklable values.

    Instances stand in for :class:`~repro.catg.env.RunResult` (or an
    alignment report) in the batch results, so the assembly path can
    render a complete report with the affected entries marked instead of
    losing the whole batch to one raw traceback.
    """

    config_name: str
    test_name: str
    seed: int
    view: str                  # "rtl" | "bca" | "compare"
    stage: str                 # "run" | "compare" | "triage"
    kind: str                  # "ERROR" | "TIMEOUT"
    exc_type: str
    message: str
    traceback_text: str = ""
    attempt: int = 0
    quarantined: bool = False
    #: One line per failed attempt, oldest first (set on the terminal
    #: failure so the report can show the whole history).
    history: Tuple[str, ...] = ()

    # RunResult-compatible surface for the report assembly path.
    @property
    def passed(self) -> bool:
        return False

    @property
    def timed_out(self) -> bool:
        return self.kind == "TIMEOUT"

    @property
    def status(self) -> str:
        return "QUARANTINED" if self.quarantined else self.kind

    def describe(self) -> str:
        return f"{self.kind} {self.exc_type}: {self.message}"

    @classmethod
    def from_exception(cls, *, config_name: str, test_name: str, seed: int,
                       view: str, stage: str, exc: BaseException,
                       attempt: int) -> "RunFailure":
        return cls(
            config_name=config_name, test_name=test_name, seed=seed,
            view=view, stage=stage, kind="ERROR",
            exc_type=type(exc).__name__, message=str(exc) or repr(exc),
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempt=attempt,
        )


def guarded_execute_run(job: RunJob):
    """Worker-side run wrapper: never raises, returns a tagged outcome
    ``("ok", RunResult)`` or ``("fail", RunFailure)``."""
    try:
        chaos.inject_before_run(job)
        result = execute_run_job(job)
        chaos.inject_after_run(job)
        return ("ok", result)
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config.name, test_name=job.test_name,
            seed=job.seed, view=job.view, stage="run", exc=exc,
            attempt=job.attempt,
        ))


def guarded_execute_compare(job: CompareJob):
    """Worker-side compare wrapper; corrupt/truncated VCDs surface as a
    structured failure, not a traceback."""
    try:
        return ("ok", execute_compare_job(job))
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config_name, test_name=job.test_name,
            seed=job.seed, view="compare", stage="compare", exc=exc,
            attempt=job.attempt,
        ))


def guarded_execute_triage(job: TriageJob):
    """Worker-side triage wrapper; a triage crash must never take down a
    batch whose entry already failed — it degrades to an untriaged FAIL."""
    try:
        return ("ok", execute_triage_job(job))
    except Exception as exc:
        return ("fail", RunFailure.from_exception(
            config_name=job.config.name, test_name=job.test_name,
            seed=job.seed, view="triage", stage="triage", exc=exc,
            attempt=job.attempt,
        ))


#: The guarded wrapper for each task kind; the serial path and every
#: leased worker execute jobs through this one table.
GUARDS = {
    "run": guarded_execute_run,
    "compare": guarded_execute_compare,
    "triage": guarded_execute_triage,
}


# ---------------------------------------------------------------------------
# Configuration and fault accounting


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for one regression batch."""

    #: Coordinator-side wall-clock deadline per job (seconds); a worker
    #: past it is killed.  ``None`` disables it.  A deadline needs a
    #: worker to kill, so under ``jobs=1`` it moves the batch onto one
    #: leased worker process.
    run_timeout: Optional[float] = None
    #: Retries after the first failed attempt (total attempts = N + 1).
    max_retries: int = 2
    #: Base backoff delay; attempt *k* waits ``backoff * 2**(k-1)``.
    backoff: float = 0.25
    #: Append-only JSONL checkpoint journal (``None`` disables it).
    journal_path: Optional[str] = None
    #: Replay completed runs from the journal instead of re-executing.
    resume: bool = False

    def with_tag(self, tag: str) -> "ResilienceConfig":
        """Derive a config whose journal file carries ``tag`` (for flows
        that run several regressions, one per iteration)."""
        if not self.journal_path:
            return self
        stem, ext = os.path.splitext(self.journal_path)
        return dataclasses.replace(self, journal_path=f"{stem}.{tag}{ext}")


@dataclass
class BatchFaults:
    """What went wrong (and was absorbed) during one batch."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    compare_failures: int = 0
    triage_failures: int = 0
    quarantined: List[RunFailure] = field(default_factory=list)
    resumed_runs: int = 0
    resumed_compares: int = 0
    resumed_triages: int = 0
    stale_journal_entries: int = 0
    # Leased-worker accounting (all zero for in-process serial batches).
    lease_reclaims: int = 0
    worker_deaths: int = 0
    worker_respawns: int = 0
    #: No leased worker was reachable (none joined, or all died with
    #: work pending); the rest of the batch ran in-process instead.
    degraded_local: bool = False
    #: Structured fault records for the telemetry run log.
    events: List[dict] = field(default_factory=list)

    def note(self, event: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "event": event, "ts": round(time.time(), 6)}
        record.update(fields)
        self.events.append(record)

    def counters(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "compare_failures": self.compare_failures,
            "triage_failures": self.triage_failures,
            "quarantined": len(self.quarantined),
            "resumed_runs": self.resumed_runs,
            "resumed_compares": self.resumed_compares,
            "resumed_triages": self.resumed_triages,
            "stale_journal_entries": self.stale_journal_entries,
            "lease_reclaims": self.lease_reclaims,
            "worker_deaths": self.worker_deaths,
            "worker_respawns": self.worker_respawns,
            "degraded_local": self.degraded_local,
        }

    @property
    def clean(self) -> bool:
        return not (self.retries or self.crashes or self.timeouts
                    or self.compare_failures or self.triage_failures
                    or self.quarantined
                    or self.stale_journal_entries or self.lease_reclaims
                    or self.worker_deaths)


# ---------------------------------------------------------------------------
# Journal


JOURNAL_SCHEMA = "repro.regression/journal/v1"


class JournalError(Exception):
    """Journal does not belong to this batch (or is unreadable)."""


def _canonical_config_text(config) -> str:
    """``to_text()`` with the address map resolved first: elaboration
    materialises the default map onto the config, so an unresolved and a
    resolved copy of the same configuration must digest identically."""
    config.resolved_map
    return config.to_text()


def batch_signature(configs, tests, seeds, bugs, compare_waveforms: bool,
                    with_arbitration_checker: bool) -> str:
    """Digest of everything that determines the batch's work list.  A
    journal keyed to a different signature must not be replayed."""
    import hashlib

    payload = json.dumps({
        "configs": [_canonical_config_text(config) for config in configs],
        "tests": list(tests),
        "seeds": list(seeds),
        "bugs": sorted(bugs),
        "compare_waveforms": compare_waveforms,
        "with_arbitration_checker": with_arbitration_checker,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_artifact_paths(job: RunJob) -> Dict[str, str]:
    """The files one run job writes, keyed by role."""
    paths: Dict[str, str] = {}
    if job.vcd_path:
        paths["vcd"] = job.vcd_path
    if job.report_stem:
        paths["report"] = job.report_stem + ".report.txt"
        paths["coverage"] = job.report_stem + ".coverage.txt"
    return paths


def _encode_payload(value) -> str:
    return base64.b64encode(
        zlib.compress(pickle.dumps(value, protocol=4))).decode("ascii")


def _decode_payload(text: str):
    return pickle.loads(zlib.decompress(base64.b64decode(text)))


class Journal:
    """Append-only JSONL checkpoint of completed runs and comparisons.

    Every entry is keyed on ``(config, test, seed, view)`` — the full
    coordinates of one deterministic run — plus the SHA-256 digests of
    the artifacts it wrote, so replay only trusts entries whose files
    are still byte-for-byte what the journaled run produced.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None

    def start(self, signature: str, resume: bool) -> List[dict]:
        """Open the journal; returns previously journaled entries when
        resuming (validating the header), else truncates and writes a
        fresh header."""
        entries: List[dict] = []
        if resume and os.path.exists(self.path):
            entries = self._read(signature)
            self._handle = open(self.path, "a", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._write({
                "kind": "header", "schema": JOURNAL_SCHEMA,
                "signature": signature,
            })
        return entries

    def _read(self, signature: str) -> List[dict]:
        entries: List[dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for index, line in enumerate(handle):
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn trailing line is exactly what an interrupt
                    # leaves behind; everything before it is still good.
                    continue
                if index == 0 or record.get("kind") == "header":
                    if (record.get("kind") != "header"
                            or record.get("schema") != JOURNAL_SCHEMA):
                        raise JournalError(
                            f"{self.path!r} is not a regression journal")
                    if record.get("signature") != signature:
                        raise JournalError(
                            f"journal {self.path!r} belongs to a different "
                            "batch (configs/tests/seeds/bugs changed); "
                            "remove it or drop --resume"
                        )
                    continue
                entries.append(record)
        if not entries and not os.path.getsize(self.path):
            raise JournalError(f"journal {self.path!r} is empty")
        return entries

    def _write(self, record: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def record_run(self, job: RunJob, result) -> None:
        artifacts = {
            role: file_digest(path)
            for role, path in run_artifact_paths(job).items()
        }
        self._write({
            "kind": "run",
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
            "status": getattr(result, "status", "PASS"),
            "attempt": job.attempt,
            "artifacts": artifacts,
            "payload": _encode_payload(result),
        })

    def record_compare(self, *, config_name: str, test_name: str, seed: int,
                       rtl_vcd: str, bca_vcd: str, report) -> None:
        self._write({
            "kind": "compare",
            "config": config_name, "test": test_name, "seed": seed,
            "artifacts": {
                "rtl": file_digest(rtl_vcd),
                "bca": file_digest(bca_vcd),
            },
            "payload": _encode_payload(report),
        })

    def record_triage(self, job: TriageJob, report) -> None:
        # An unknown-kind record is silently skipped by older replayers,
        # so journaling triages needs no schema bump.
        artifacts = {
            "rtl": file_digest(job.rtl_vcd),
            "bca": file_digest(job.bca_vcd),
        }
        if job.out_path:
            artifacts["triage"] = file_digest(job.out_path)
        self._write({
            "kind": "triage",
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed,
            "artifacts": artifacts,
            "payload": _encode_payload(report),
        })

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _artifacts_current(recorded: Dict[str, str],
                       expected_paths: Dict[str, str]) -> bool:
    if set(recorded) != set(expected_paths):
        return False
    for role, digest in recorded.items():
        path = expected_paths[role]
        if not os.path.exists(path) or file_digest(path) != digest:
            return False
    return True


def replay_journal(
    entries: Sequence[dict],
    jobs_by_key: Dict[RunKey, RunJob],
    triage_paths: Optional[Dict[EntryKey, str]] = None,
) -> Tuple[Dict[RunKey, object], Dict[EntryKey, object],
           Dict[EntryKey, object], int]:
    """Validate journal entries against the batch's expected artifacts.

    Returns the replayable run results, the replayable alignment
    reports, the replayable triage reports, and the number of stale
    entries (digest mismatch, missing file, undecodable payload) that
    will be re-executed instead.
    """
    key_by_names: Dict[Tuple[str, str, int, str], RunKey] = {
        (job.config.name, job.test_name, job.seed, job.view): key
        for key, job in jobs_by_key.items()
    }
    latest_runs: Dict[Tuple[str, str, int, str], dict] = {}
    latest_compares: Dict[Tuple[str, str, int], dict] = {}
    latest_triages: Dict[Tuple[str, str, int], dict] = {}
    for record in entries:
        if record.get("kind") == "run":
            latest_runs[(record.get("config"), record.get("test"),
                         record.get("seed"), record.get("view"))] = record
        elif record.get("kind") == "compare":
            latest_compares[(record.get("config"), record.get("test"),
                             record.get("seed"))] = record
        elif record.get("kind") == "triage":
            latest_triages[(record.get("config"), record.get("test"),
                            record.get("seed"))] = record
    results: Dict[RunKey, object] = {}
    alignments: Dict[EntryKey, object] = {}
    triages: Dict[EntryKey, object] = {}
    stale = 0
    for names, record in latest_runs.items():
        key = key_by_names.get(names)
        if key is None:
            stale += 1
            continue
        job = jobs_by_key[key]
        if not _artifacts_current(record.get("artifacts", {}),
                                  run_artifact_paths(job)):
            stale += 1
            continue
        try:
            results[key] = _decode_payload(record["payload"])
        except Exception:
            stale += 1
    for names, record in latest_compares.items():
        rtl_key = key_by_names.get(names + ("rtl",))
        bca_key = key_by_names.get(names + ("bca",))
        if rtl_key is None or bca_key is None:
            stale += 1
            continue
        rtl_vcd = jobs_by_key[rtl_key].vcd_path
        bca_vcd = jobs_by_key[bca_key].vcd_path
        if not rtl_vcd or not bca_vcd or not _artifacts_current(
            record.get("artifacts", {}), {"rtl": rtl_vcd, "bca": bca_vcd}
        ):
            stale += 1
            continue
        try:
            alignments[rtl_key[:3]] = _decode_payload(record["payload"])
        except Exception:
            stale += 1
    for names, record in latest_triages.items():
        rtl_key = key_by_names.get(names + ("rtl",))
        bca_key = key_by_names.get(names + ("bca",))
        if rtl_key is None or bca_key is None:
            stale += 1
            continue
        rtl_vcd = jobs_by_key[rtl_key].vcd_path
        bca_vcd = jobs_by_key[bca_key].vcd_path
        if not rtl_vcd or not bca_vcd:
            stale += 1
            continue
        expected = {"rtl": rtl_vcd, "bca": bca_vcd}
        if "triage" in record.get("artifacts", {}):
            out = (triage_paths or {}).get(rtl_key[:3])
            if out is None:
                stale += 1
                continue
            expected["triage"] = out
        if not _artifacts_current(record.get("artifacts", {}), expected):
            stale += 1
            continue
        try:
            triages[rtl_key[:3]] = _decode_payload(record["payload"])
        except Exception:
            stale += 1
    return results, alignments, triages, stale


# ---------------------------------------------------------------------------
# The resilient batch executor


class _Task:
    """One schedulable unit (a run, comparison or triage) plus its
    history."""

    __slots__ = ("kind", "key", "job", "failures")

    def __init__(self, kind: str, key: tuple, job) -> None:
        self.kind = kind          # "run" | "compare" | "triage"
        self.key = key            # RunKey | EntryKey
        self.job = job
        self.failures: List[RunFailure] = []

    @property
    def names(self) -> Dict[str, object]:
        if self.kind == "run":
            return {"config": self.job.config.name,
                    "test": self.job.test_name, "seed": self.job.seed,
                    "view": self.job.view}
        if self.kind == "triage":
            return {"config": self.job.config.name,
                    "test": self.job.test_name, "seed": self.job.seed,
                    "view": "triage"}
        return {"config": self.job.config_name, "test": self.job.test_name,
                "seed": self.job.seed, "view": "compare"}


class ResilientBatchExecutor:
    """Executes a batch's run/compare/triage jobs in this process, in
    entry order, with crash isolation, retry/quarantine and journaling.

    This class owns every piece of batch bookkeeping — results, journal,
    retry budget, compare/triage scheduling, the result cache — and
    :class:`~repro.regression.distributed.DistributedBatchExecutor`
    reuses all of it, changing only *where* jobs run.  Either way the
    results feed the same deterministic assembly path, so fault-free
    output is byte-identical across the two.
    """

    def __init__(
        self,
        jobs_by_key: Dict[RunKey, RunJob],
        *,
        compare_waveforms: bool,
        telemetry: bool = False,
        config: Optional[ResilienceConfig] = None,
        journal: Optional[Journal] = None,
        resumed_results: Optional[Dict[RunKey, object]] = None,
        resumed_alignments: Optional[Dict[EntryKey, object]] = None,
        triage: bool = False,
        triage_paths: Optional[Dict[EntryKey, str]] = None,
        resumed_triages: Optional[Dict[EntryKey, object]] = None,
        cache=None,
    ) -> None:
        self.jobs_by_key = jobs_by_key
        self.compare_waveforms = compare_waveforms
        self.telemetry = telemetry
        self.config = config if config is not None else ResilienceConfig()
        self.journal = journal
        #: Optional :class:`repro.cache.ResultCache`; when set, run
        #: tasks are satisfied from the store where possible and every
        #: fresh result is published back to it.
        self.cache = cache
        self.faults = BatchFaults()
        self.results: Dict[RunKey, object] = dict(resumed_results or {})
        self.alignments: Dict[EntryKey, object] = \
            dict(resumed_alignments or {})
        self.compare_failures: Dict[EntryKey, RunFailure] = {}
        self.compare_telemetry: Dict[EntryKey, object] = {}
        # Failure triage rides behind the comparisons: entries that
        # failed (checkers or alignment) get a TriageJob, everything
        # else is untouched — a fault-free batch never schedules one.
        self.triage = triage and compare_waveforms
        self.triage_paths = dict(triage_paths or {})
        self.triages: Dict[EntryKey, object] = dict(resumed_triages or {})
        self.triage_telemetry: Dict[EntryKey, object] = {}
        self._triaged = set(self.triages)
        self._entry_order: List[EntryKey] = []
        seen = set()
        for key in jobs_by_key:
            entry_key = key[:3]
            if entry_key not in seen:
                seen.add(entry_key)
                self._entry_order.append(entry_key)
        self._compared = set(self.alignments)

    # -- shared bookkeeping -------------------------------------------------

    def _job_for_attempt(self, task: _Task):
        attempt = len(task.failures)
        changes: Dict[str, object] = {}
        if task.job.attempt != attempt:
            changes["attempt"] = attempt
        if self.telemetry and attempt:
            changes["submitted_at"] = time.time()
        if changes:
            task.job = dataclasses.replace(task.job, **changes)
        return task.job

    def _register_failure(self, task: _Task,
                          failure: RunFailure) -> Optional[float]:
        """Record one failed attempt.  Returns the backoff delay before
        the retry, or ``None`` when the job is terminal (quarantined or
        out of budget)."""
        if failure.stage == "compare":
            self.faults.compare_failures += 1
        elif failure.stage == "triage":
            self.faults.triage_failures += 1
        elif failure.kind == "TIMEOUT":
            self.faults.timeouts += 1
        else:
            self.faults.crashes += 1
        task.failures.append(failure)
        n_failed = len(task.failures)
        if n_failed <= self.config.max_retries:
            self.faults.retries += 1
            delay = min(_MAX_BACKOFF,
                        self.config.backoff * (2 ** (n_failed - 1)))
            self.faults.note("job.retry", **task.names,
                             attempt=failure.attempt, kind=failure.kind,
                             error=failure.describe(),
                             backoff_seconds=round(delay, 3))
            return delay
        history = tuple(
            f"attempt {f.attempt}: {f.describe()}" for f in task.failures
        )
        terminal = dataclasses.replace(
            task.failures[-1],
            quarantined=n_failed > 1,
            history=history,
        )
        if task.kind == "run":
            self.results[task.key] = terminal
        elif task.kind == "compare":
            self.compare_failures[task.key] = terminal
        # triage is best-effort: the entry already failed, so a terminal
        # triage failure only lives in the fault accounting above.
        if terminal.quarantined:
            self.faults.quarantined.append(terminal)
            self.faults.note("job.quarantined", **task.names,
                             attempts=n_failed, error=terminal.describe())
        else:
            self.faults.note("job.failed", **task.names,
                             kind=terminal.kind, error=terminal.describe())
        return None

    def _satisfy_from_cache(self, task: _Task, ready) -> bool:
        """Try to complete a run task from the result cache.

        On a verified hit the artifacts are materialized, the result is
        journaled and completed exactly as an executed run would be, and
        (when ``ready`` is a queue) the entry's comparison is scheduled.
        A miss — including a quarantined corrupt entry — returns False
        and the task executes normally.
        """
        if self.cache is None or task.kind != "run":
            return False
        result = self.cache.load(task.job, run_artifact_paths(task.job))
        if result is None:
            return False
        self._complete(task, result, from_cache=True)
        if ready is not None:
            compare = self._compare_task(task.key[:3])
            if compare is not None:
                ready.append(compare)
        return True

    def _complete(self, task: _Task, payload,
                  from_cache: bool = False) -> None:
        if task.kind == "run":
            self.results[task.key] = payload
            if self.journal is not None:
                self.journal.record_run(task.job, payload)
            if self.cache is not None and not from_cache:
                entry_path = self.cache.store(
                    task.job, payload, run_artifact_paths(task.job))
                chaos.inject_after_cache_store(task.job, entry_path)
        elif task.kind == "triage":
            report, tele = payload
            self.triages[task.key] = report
            if tele is not None:
                self.triage_telemetry[task.key] = tele
            if self.journal is not None:
                self.journal.record_triage(task.job, report)
        else:
            report, tele = payload
            self.alignments[task.key] = report
            if tele is not None:
                self.compare_telemetry[task.key] = tele
            if self.journal is not None:
                self.journal.record_compare(
                    config_name=task.job.config_name,
                    test_name=task.job.test_name, seed=task.job.seed,
                    rtl_vcd=task.job.rtl_vcd, bca_vcd=task.job.bca_vcd,
                    report=report,
                )
        if task.failures:
            self.faults.note("job.recovered", **task.names,
                             attempts=len(task.failures) + 1)

    def _compare_task(self, entry_key: EntryKey) -> Optional[_Task]:
        """A compare task for ``entry_key`` if it is due: comparison
        wanted, both views succeeded with dumps, not yet compared."""
        if not self.compare_waveforms or entry_key in self._compared:
            return None
        rtl = self.results.get(entry_key + ("rtl",))
        bca = self.results.get(entry_key + ("bca",))
        if isinstance(rtl, RunFailure) or isinstance(bca, RunFailure):
            self._compared.add(entry_key)
            return None
        if rtl is None or bca is None:
            return None
        rtl_job = self.jobs_by_key[entry_key + ("rtl",)]
        bca_job = self.jobs_by_key[entry_key + ("bca",)]
        if not rtl_job.vcd_path or not bca_job.vcd_path:
            self._compared.add(entry_key)
            return None
        self._compared.add(entry_key)
        job = CompareJob(
            rtl_vcd=rtl_job.vcd_path, bca_vcd=bca_job.vcd_path,
            config_name=rtl_job.config.name, test_name=entry_key[1],
            seed=entry_key[2], telemetry=self.telemetry,
            submitted_at=time.time() if self.telemetry else None,
        )
        return _Task("compare", entry_key, job)

    def _triage_task(self, entry_key: EntryKey) -> Optional[_Task]:
        """A triage task for ``entry_key`` if it is due: triage enabled,
        the entry failed (checkers or alignment), both dumps real, not
        yet triaged."""
        if not self.triage or entry_key in self._triaged:
            return None
        alignment = self.alignments.get(entry_key)
        if alignment is None:
            return None
        rtl = self.results.get(entry_key + ("rtl",))
        bca = self.results.get(entry_key + ("bca",))
        if (rtl is None or bca is None or isinstance(rtl, RunFailure)
                or isinstance(bca, RunFailure)):
            self._triaged.add(entry_key)
            return None
        checkers_failed = not (rtl.passed and bca.passed)
        if not checkers_failed and alignment.signed_off:
            self._triaged.add(entry_key)
            return None
        rtl_job = self.jobs_by_key[entry_key + ("rtl",)]
        bca_job = self.jobs_by_key[entry_key + ("bca",)]
        if not rtl_job.vcd_path or not bca_job.vcd_path:
            self._triaged.add(entry_key)
            return None
        self._triaged.add(entry_key)
        job = TriageJob(
            config=rtl_job.config, test_name=entry_key[1],
            seed=entry_key[2],
            rtl_vcd=rtl_job.vcd_path, bca_vcd=bca_job.vcd_path,
            out_path=self.triage_paths.get(entry_key),
            bugs=bca_job.bugs,
            reason="checkers-failed" if checkers_failed
            else "low-alignment",
            telemetry=self.telemetry,
            submitted_at=time.time() if self.telemetry else None,
        )
        return _Task("triage", entry_key, job)

    # -- execution ----------------------------------------------------------

    def execute(self):
        self._execute_serial()
        return self._outcome()

    def _outcome(self):
        return (self.results, self.alignments, self.compare_telemetry,
                self.compare_failures, self.triages, self.triage_telemetry,
                self.faults)

    def _execute_serial(self) -> None:
        """Every job not yet done, inline and in entry order: both views,
        then the entry's comparison and (if due) its triage."""
        for entry_key in self._entry_order:
            for view in ("rtl", "bca"):
                key = entry_key + (view,)
                if key in self.results:
                    continue
                self._run_task_blocking(
                    _Task("run", key, self.jobs_by_key[key]))
            task = self._compare_task(entry_key)
            if task is not None:
                self._run_task_blocking(task)
            task = self._triage_task(entry_key)
            if task is not None:
                self._run_task_blocking(task)

    def _run_task_blocking(self, task: _Task) -> None:
        if self._satisfy_from_cache(task, None):
            return
        guard = GUARDS[task.kind]
        while True:
            status, payload = guard(self._job_for_attempt(task))
            if status == "ok":
                self._complete(task, payload)
                return
            delay = self._register_failure(task, payload)
            if delay is None:
                return
            time.sleep(delay)
