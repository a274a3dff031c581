"""Content-addressed, integrity-verified result store for regression runs.

The paper's economic claim is that one reusable environment amortizes
verification effort across models and teams; the logical endpoint is a
verification farm where every batch any engineer has ever run feeds a
shared, dedup'd result pool.  This module is that pool's storage layer:

* **Content-addressed keys.**  Every simulation run is deterministic in
  its coordinates, so its result is addressed by the SHA-256 of
  everything that determines it: the cone-scoped *design key* of its
  (config, view) (:mod:`repro.analysis.impact`, memoized under the
  *design-source hash*: the bytes of every Python module the simulated
  models are built from), the canonical configuration text, the test
  name, the seed, the view, the injected BCA bug set (BCA view only —
  the RTL view never sees bugs, so its entries stay shared across bug
  experiments) and the arbitration-checker flag.

* **Integrity verification on every read.**  Each entry (and memo)
  carries the SHA-256 digest of its own canonical body.  A torn entry
  (killed writer before atomic rename existed), a flipped byte (bad
  disk, bad NFS), or a poisoned entry (payload swapped under a key it
  does not belong to) fails verification and is **never trusted**: it
  is moved to ``quarantine/`` with a structured diagnostic and the run
  (or key derivation) re-executes.

* **Atomic, last-wins writes.**  Entries are staged to a unique temp
  file in the store and published with :func:`os.replace`, so any
  number of concurrent writers (workers of one batch, or many engineers
  sharing one cache directory) race harmlessly: readers see a complete
  old entry, a complete new entry, or no entry — never a torn one.

On a hit the store materializes the run's artifacts (VCD, verification
report, coverage report) byte-for-byte into the requesting batch's
workdir and returns the unpickled
:class:`~repro.catg.env.RunResult`, so a cache-served batch renders
reports identical to one that simulated every cycle.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import hashlib
import json
import os
import pickle
import tempfile
import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Schema tag of every entry file; entries from an incompatible schema
#: are quarantined, not misread.
CACHE_SCHEMA = "repro.cache/entry/v1"

#: Schema tag of a design-key memo file (one per config and view).
MEMO_SCHEMA = "repro.cache/design-key/v1"

#: Schema tag of the structured diagnostic written next to a
#: quarantined entry.
DIAGNOSTIC_SCHEMA = "repro.cache/diagnostic/v1"

#: Environment variable naming a default cache root for the regression
#: CLI (``--cache-dir`` overrides it, ``--no-cache`` ignores it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Package subtrees (under ``src/repro``) whose sources determine a
#: simulation result.  Deliberately excludes the orchestration layers
#: (``regression``, ``telemetry``, ``triage``, ``analysis``, ``lint``,
#: ``analyzer``): a change to the scheduler or the report tooling cannot
#: change a single simulated cycle, so it must not invalidate the pool.
DESIGN_ROOTS: Tuple[str, ...] = (
    "kernel", "stbus", "rtl", "bca", "catg", "fabric", "vcd", "oldflow",
)

#: Module-level memo for :func:`design_source_hash` (the sources cannot
#: change under a running process that already imported them).
_DESIGN_HASH: Optional[str] = None


def design_source_hash(roots: Sequence[str] = DESIGN_ROOTS) -> str:
    """SHA-256 over every ``*.py`` file of the design-defining subtrees.

    Hashed as ``relpath NUL content NUL`` in an explicitly sorted walk
    (directories and files both), with ``__pycache__`` trees and
    compiled ``*.pyc`` files skipped and line endings normalized to
    ``\\n``, so renames, additions and edits all change the hash while a
    checkout of identical sources reproduces it on any platform.
    """
    global _DESIGN_HASH
    if roots == DESIGN_ROOTS and _DESIGN_HASH is not None:
        return _DESIGN_HASH
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for root in roots:
        root_dir = os.path.join(package_dir, root)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py") or name.endswith(".pyc"):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, package_dir)
                digest.update(rel.replace(os.sep, "/").encode("utf-8"))
                digest.update(b"\0")
                with open(full, "rb") as handle:
                    data = handle.read()
                digest.update(
                    data.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
                digest.update(b"\0")
    value = digest.hexdigest()
    if roots == DESIGN_ROOTS:
        _DESIGN_HASH = value
    return value


def config_sha256(config) -> str:
    """SHA-256 of a configuration's canonical text."""
    # Resolve the address map first: elaboration materializes the
    # default map onto the config, so a resolved and an unresolved copy
    # of the same configuration must key identically.
    config.resolved_map
    return hashlib.sha256(config.to_text().encode("utf-8")).hexdigest()


def memo_inputs(design_source: str, config_digest: str,
                view: str) -> Dict[str, str]:
    """What one design-key memo is looked up by (and records)."""
    return {"design_source": design_source,
            "config_sha256": config_digest, "view": view}


def memo_key(inputs: Dict[str, str]) -> str:
    """Address of one design-key memo: the hash of its inputs."""
    return hashlib.sha256(json.dumps(
        inputs, sort_keys=True).encode("utf-8")).hexdigest()


def cache_key(job, design: str) -> str:
    """The content address of one run's result.

    ``job`` is a :class:`~repro.regression.parallel.RunJob`; ``design``
    is the design key of its (config, view).
    """
    job.config.resolved_map  # see config_sha256
    payload = json.dumps({
        "design": design,
        "config": job.config.to_text(),
        "test": job.test_name,
        "seed": job.seed,
        "view": job.view,
        # The RTL view never executes with bugs (the runner only seeds
        # them into the BCA model), so RTL entries are shared across
        # bug experiments.
        "bugs": sorted(job.bugs) if job.view == "bca" else [],
        "with_arbitration_checker": job.with_arbitration_checker,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """What one batch (or one process) did to the store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    verify_failures: int = 0
    quarantined: int = 0

    def counters(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class CacheDiagnostic:
    """Structured record of one rejected (quarantined) entry or memo."""

    key: str
    reason: str        # torn-entry | schema-mismatch | digest-mismatch |
                       # key-mismatch | payload-undecodable |
                       # inputs-mismatch (memo)
    detail: str
    entry_path: str
    quarantine_path: Optional[str]

    def as_record(self) -> Dict[str, object]:
        return {
            "schema": DIAGNOSTIC_SCHEMA,
            "event": "cache.quarantined",
            "key": self.key,
            "reason": self.reason,
            "detail": self.detail,
            "entry_path": self.entry_path,
            "quarantine_path": self.quarantine_path,
        }


#: Body fields (and types) every verified file of a schema carries.
_BODY_FIELDS = {CACHE_SCHEMA: (("payload", str), ("artifacts", dict)),
                MEMO_SCHEMA: (("inputs", dict), ("record", dict))}


def _encode_blob(data: bytes) -> str:
    return base64.b64encode(zlib.compress(data, 6)).decode("ascii")


def _decode_blob(text: str) -> bytes:
    return zlib.decompress(base64.b64decode(text))


def _entry_digest(body: Dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def impact_counters(records, memo_hits: int = 0) -> Dict[str, int]:
    """Fingerprint-rung, key-mode and memo totals over design-key
    records (the metrics ``batch.impact`` section)."""
    counters = dict.fromkeys((
        "impact.designs", "impact.memo_hits", "impact.processes",
        "impact.semantic_ir", "impact.semantic_ast", "impact.raw_source",
        "impact.opaque", "impact.cone_keys", "impact.design_fallbacks"), 0)
    counters["impact.memo_hits"] = memo_hits
    for record in records:
        counters["impact.designs"] += 1
        for mode, count in record["modes"].items():
            counters["impact." + mode.replace("-", "_")] += count
            counters["impact.processes"] += count
        counters["impact.cone_keys" if record["mode"] == "cone"
                 else "impact.design_fallbacks"] += 1
    return counters


class ResultCache:
    """A content-addressed result store rooted at one directory.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one entry per result
        <root>/designs/<memo key>.json        one design key per memo key
        <root>/quarantine/<name>.json         rejected files (+ .diag.json)

    The first design-key memo miss builds one impact index over the
    batch's ``configs`` (in ``span("impact.index")``, if given).

    Thread-compatibility: one instance is used from the coordinating
    process only; concurrent *processes* sharing the same root are safe
    by construction (unique temp files + atomic rename, last-wins).
    """

    def __init__(self, root: str, configs: Sequence = (),
                 span=None) -> None:
        self.root = root
        self.configs = list(configs)
        self._span = span
        #: memo key -> the design-key record in force for this batch.
        self._designs: Dict[str, Dict[str, object]] = {}
        self.stats = CacheStats()
        #: Structured events (hit/miss/store/quarantine/design key) for
        #: the telemetry run log; drained by the batch exporter.
        self.events: List[Dict[str, object]] = []

    # -- paths and keys -----------------------------------------------------

    def entry_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def memo_path(self, key: str) -> str:
        return os.path.join(self.root, "designs", f"{key}.json")

    def key_for(self, job) -> str:
        return cache_key(job, design=self.design_for(job))

    def design_for(self, job) -> str:
        """``job``'s design key: from its memo under the current
        sources, else derived afresh for the whole batch."""
        inputs = memo_inputs(design_source_hash(),
                             config_sha256(job.config), job.view)
        key = memo_key(inputs)
        if key not in self._designs:
            memo, reason, detail = self.read_memo(inputs)
            if reason is not None:
                self._quarantine(key, self.memo_path(key), reason, detail)
            if memo is not None:
                self._designs[key] = memo["record"]
                self.events.append(dict(memo["record"], source="memo"))
            else:  # the job's config wins its label over a namesake
                self._index([job.config] + [c for c in self.configs
                                            if c.name != job.config.name])
        return self._designs[key]["key"]  # type: ignore[return-value]

    def read_memo(self, inputs: Dict[str, str]):
        """``(memo, reason, detail)``, without side effects; ``memo`` is
        ``None`` when absent or (``reason`` set) not to be trusted."""
        key = memo_key(inputs)
        memo, reason, detail = self._read(key, self.memo_path(key),
                                          MEMO_SCHEMA)
        if memo is not None and memo["inputs"] != inputs:
            return None, "inputs-mismatch", (
                f"memo records inputs {memo['inputs']} but was looked up "
                f"for {inputs}; refusing to trust it")
        return memo, reason, detail

    def _index(self, configs) -> None:
        """Fingerprint ``configs`` with one impact index and memoize
        every design key it derives."""
        from ..analysis.impact import ImpactIndex

        span = self._span or (lambda name, **args: contextlib.nullcontext())
        with span("impact.index", configs=len(configs)):
            index = ImpactIndex(configs)
        for label, design in index.designs.items():
            inputs = memo_inputs(design_source_hash(),
                                 design.config_digest, design.view)
            key = memo_key(inputs)
            if key not in self._designs:
                self._designs[key] = record = index.records[label]
                self._publish(self.memo_path(key), {
                    "schema": MEMO_SCHEMA, "key": key, "inputs": inputs,
                    "record": record})
                self.events.append(dict(record, source="index"))

    def impact_counters(self) -> Dict[str, int]:
        return impact_counters(self._designs.values(), sum(
            event.get("source") == "memo" for event in self.events))

    # -- write --------------------------------------------------------------

    def store(self, job, result,
              artifacts: Dict[str, str]) -> Optional[str]:
        """Publish one run's result (and its artifact bytes) under its
        content address.  Returns the entry path (``None`` when the
        result is not cacheable, e.g. an artifact file vanished).

        The stored payload is stripped of per-execution telemetry and
        process timings: those describe *one historical execution*, not
        the result, and must not leak into a later batch's side-channel
        exports.
        """
        key = self.key_for(job)
        clean = copy.copy(result)
        clean.telemetry = None
        clean.process_seconds = {}
        blobs: Dict[str, str] = {}
        try:
            for role, path in sorted(artifacts.items()):
                with open(path, "rb") as handle:
                    blobs[role] = _encode_blob(handle.read())
        except OSError:
            return None
        # Key components are recorded alongside the entry so cache
        # invalidation is diagnosable (`python -m repro.cache explain`):
        # the config *digest* rather than its full text keeps the entry
        # small while still pinpointing which component diverged.
        body = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "coords": {
                "config": job.config.name,
                "test": job.test_name,
                "seed": job.seed,
                "view": job.view,
            },
            "key_inputs": {
                "design": self.design_for(job),
                "config_sha256": config_sha256(job.config),
                "test": job.test_name,
                "seed": job.seed,
                "view": job.view,
                "bugs": sorted(job.bugs) if job.view == "bca" else [],
                "with_arbitration_checker": job.with_arbitration_checker,
            },
            "payload": _encode_blob(pickle.dumps(clean, protocol=4)),
            "artifacts": blobs,
        }
        path = self.entry_path(key)
        self._publish(path, body)
        self.stats.stores += 1
        self.events.append({
            "event": "cache.store", "key": key, **body["coords"]})
        return path

    @staticmethod
    def _publish(path: str, body: Dict[str, object]) -> None:
        """Seal ``body`` with its digest; publish it at ``path``."""
        body["digest"] = _entry_digest(body)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _replace_atomically(path, json.dumps(body, sort_keys=True) + "\n")

    # -- read ---------------------------------------------------------------

    def load(self, job, artifacts: Dict[str, str]):
        """Look one run up.  On a verified hit, materialize its artifact
        files at the paths in ``artifacts`` (atomically) and return the
        :class:`~repro.catg.env.RunResult`; on a miss return ``None``.

        A present-but-unverifiable entry (torn, corrupt, poisoned) is
        quarantined with a structured diagnostic and reported as a miss
        — a batch never trusts bytes that fail verification.
        """
        key = self.key_for(job)
        path = self.entry_path(key)
        entry, reason, detail = self._read(key, path)
        if entry is None:
            if reason is not None:
                self._quarantine(key, path, reason, detail)
            self._miss(key, job, "no-entry" if reason is None
                       else f"quarantined:{reason}")
            return None
        if not set(artifacts) <= set(entry["artifacts"]):
            # A valid entry stored by a batch that dumped fewer
            # artifacts (e.g. no workdir) cannot satisfy this request;
            # not corruption, just insufficient — plain miss.
            self._miss(key, job, "insufficient-artifacts")
            return None
        try:
            result = pickle.loads(_decode_blob(entry["payload"]))
        except Exception as exc:
            self._quarantine(key, path, "payload-undecodable",
                             f"{type(exc).__name__}: {exc}")
            self._miss(key, job, "quarantined:payload-undecodable")
            return None
        for role, out_path in sorted(artifacts.items()):
            _replace_atomically(
                out_path, _decode_blob(entry["artifacts"][role]))
        self.stats.hits += 1
        self.events.append({
            "event": "cache.hit", "key": key,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })
        return result

    # -- verification -------------------------------------------------------

    @classmethod
    def _read(cls, key: str, path: str, schema: str = CACHE_SCHEMA):
        """:meth:`_verify` the file at ``path`` (all ``None`` if none)."""
        try:
            with open(path, "rb") as handle:
                return cls._verify(key, handle.read(), schema)
        except OSError:
            return None, None, None

    @staticmethod
    def _verify(key: str, raw: bytes, schema: str = CACHE_SCHEMA):
        """Parse + verify one entry's (or memo's) bytes.  Returns
        ``(entry, None, None)`` or ``(None, reason, detail)``."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return None, "torn-entry", f"undecodable JSON: {exc}"
        if not isinstance(entry, dict) \
                or entry.get("schema") != schema:
            return None, "schema-mismatch", (
                f"expected schema {schema!r}, "
                f"got {entry.get('schema') if isinstance(entry, dict) else type(entry).__name__!r}"
            )
        recorded = entry.get("digest")
        body = {name: value for name, value in entry.items()
                if name != "digest"}
        actual = _entry_digest(body)
        if recorded != actual:
            return None, "digest-mismatch", (
                f"entry digest {recorded} does not match its content "
                f"({actual}); refusing to serve"
            )
        if entry.get("key") != key:
            return None, "key-mismatch", (
                f"entry claims key {entry.get('key')} but is addressed "
                f"as {key}; refusing to serve"
            )
        if not all(isinstance(entry.get(name), kind)
                   for name, kind in _BODY_FIELDS[schema]):
            return None, "schema-mismatch", "entry body is incomplete"
        return entry, None, None

    def _miss(self, key: str, job, reason: str = "no-entry") -> None:
        """Count and log one miss, with attribution: ``no-entry`` (cold
        or key changed), ``insufficient-artifacts``, or
        ``quarantined:<verify reason>``."""
        self.stats.misses += 1
        self.events.append({
            "event": "cache.miss", "key": key, "reason": reason,
            "config": job.config.name, "test": job.test_name,
            "seed": job.seed, "view": job.view,
        })

    def _quarantine(self, key: str, path: str, reason: str,
                    detail: str) -> None:
        """Move a rejected entry out of the addressable store and write
        a structured diagnostic next to it.  The entry is *moved*, not
        deleted: the corrupt bytes are evidence."""
        qdir = os.path.join(self.root, "quarantine")
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, os.path.basename(path))
        index = 0
        while os.path.exists(dest):
            index += 1
            dest = os.path.join(
                qdir, f"{os.path.basename(path)}.{index}")
        moved: Optional[str] = dest
        try:
            os.replace(path, dest)
        except OSError:
            moved = None  # someone else already moved/replaced it
        diagnostic = CacheDiagnostic(
            key=key, reason=reason, detail=detail,
            entry_path=path, quarantine_path=moved,
        )
        if moved is not None:
            with _suppress_oserror():
                _replace_atomically(dest + ".diag.json", json.dumps(
                    diagnostic.as_record(), sort_keys=True, indent=1) + "\n")
        self.stats.verify_failures += 1
        self.stats.quarantined += moved is not None
        self.events.append(diagnostic.as_record())


def _replace_atomically(path: str, data) -> None:
    """Write ``data`` (text or bytes) to a unique temp file beside
    ``path`` and :func:`os.replace` it into place: concurrent writers
    are last-wins and readers never see a torn file."""
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)[:12]}.", suffix=".tmp~",
        dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str)
                         else data)
        os.replace(tmp, path)
    except BaseException:
        with _suppress_oserror():
            os.remove(tmp)
        raise


def _suppress_oserror():
    return contextlib.suppress(OSError)
