"""Static change-impact analysis: semantic fingerprints and cone-scoped keys.

Keying the result cache on a monolithic hash of all design sources
would let a comment in one BCA decoder invalidate the whole matrix.
This module makes re-verification cost proportional to the *semantic*
size of an edit:

* **Per-process semantic fingerprints.**  Each registered process is
  hashed over a normalized form of its body — comments, docstrings and
  formatting stripped; constants substituted by value exactly the way
  the symbolic lifter does — together with its declared read/write
  sets, sensitivity list and clock domain.  A comment-only edit, a
  docstring edit, a reformat or a constant rename leaves the
  fingerprint unchanged; a real body edit, a read/write-set change or
  a sensitivity change produces a new one.

* **The conservatism ladder.**  Normalization degrades honestly, and
  every fallback can only cause extra re-runs, never a stale hit:

  1. ``semantic-ir`` — the body lifts clean through
     :mod:`repro.analysis.symbolic`; the fingerprint hashes the sorted
     IR assignments (constants substituted, comments/formatting gone).
  2. ``semantic-ast`` — the lift was partial/opaque but the source
     parses; the fingerprint hashes the docstring-stripped AST dump
     (comment/format-insensitive, but constant renames re-run).
  3. ``raw-source`` — the source was recovered but not normalizable;
     the fingerprint hashes the raw source text (any edit re-runs).
  4. ``opaque`` — the source is unrecoverable; the *whole design* falls
     back to the monolithic design hash, with a structured diagnostic.

  Non-process code (constructors, sequence generation, checker logic,
  report rendering) is covered by the **environment residual hash**:
  every design-root module's AST with registered process bodies elided
  and docstrings stripped.  Any non-process change flips it — and with
  it every cone-scoped key — so orchestration edits behave exactly like
  the monolithic hash.  A module that fails to parse is hashed raw.

* **The design fingerprint manifest** (schema-versioned, one record per
  (config, view)) snapshots the fingerprints so two checkouts can be
  diffed: :func:`diff_manifests` maps a baseline/current pair to the
  set of semantically-changed processes per design.

* **Change-impact closure.**  Changed processes are pushed through the
  dataflow graph's fan-out cones (RTL and BCA independently) to the
  set of affected signals; every (config, view) — and therefore every
  (config, test, seed, view) cache entry — is classified affected or
  provably unaffected.

* **Cone-scoped cache keys.**  :class:`ImpactIndex` gives the result
  cache each (config, view)'s design key: the environment residual hash
  plus the sorted fingerprints of every process in the fan-in cone of
  the entry's observed signals (the VCD traces every signal and the
  checkers/coverage probe observe the ports, so the observation cone of
  a full-trace run is the entire design — the scoping power is that
  RTL and BCA process sets differ, and config-conditional processes
  exist only in some designs).  Unrelated or comment-only edits keep
  their cache hits by construction.
"""

from __future__ import annotations

import ast
import copy
import functools
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..cache.store import DESIGN_ROOTS, design_source_hash, impact_counters
from ..ioutil import atomic_write

#: Schema tag of the design fingerprint manifest; manifests from an
#: incompatible schema are rejected, not misread.
MANIFEST_SCHEMA = "repro.analysis/impact-manifest/v1"

#: Fingerprint normalization modes, strongest first (the conservatism
#: ladder of the module docstring).
MODE_SEMANTIC_IR = "semantic-ir"
MODE_SEMANTIC_AST = "semantic-ast"
MODE_RAW_SOURCE = "raw-source"
MODE_OPAQUE = "opaque"

#: The views every impact computation covers by default.
DEFAULT_VIEWS: Tuple[str, ...] = ("rtl", "bca")


class ManifestError(ValueError):
    """A manifest file could not be read or has the wrong schema."""


# ---------------------------------------------------------------------------
# Per-process fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessFingerprint:
    """Stable semantic identity of one registered process.

    ``digest`` is ``None`` exactly when ``mode`` is ``opaque`` — an
    unrecoverable process has no per-process identity and forces the
    whole-design fallback for its design.
    """

    name: str
    kind: str  # "comb" | "clocked"
    mode: str  # MODE_* above
    digest: Optional[str]
    reason: Optional[str] = None
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "mode": self.mode,
            "digest": self.digest,
            "reads": list(self.reads),
            "writes": list(self.writes),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, object]
                  ) -> "ProcessFingerprint":
        return cls(
            name=name,
            kind=str(data["kind"]),
            mode=str(data["mode"]),
            digest=data.get("digest"),  # type: ignore[arg-type]
            reason=data.get("reason"),  # type: ignore[arg-type]
            reads=tuple(data.get("reads", ())),  # type: ignore[arg-type]
            writes=tuple(data.get("writes", ())),  # type: ignore[arg-type]
        )


class _StripDocstrings(ast.NodeTransformer):
    """Drop every bare-string expression statement (docstrings included).

    A bare string constant is semantically a no-op wherever it appears,
    so stripping all of them makes the dump insensitive to docstring
    edits without changing behavior.
    """

    def visit_Expr(self, node: ast.Expr):  # noqa: N802 (ast API)
        if isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            return None
        return self.generic_visit(node)


#: Normalized dumps by (source, node position), which alone determine
#: them: a batch registers the same few functions hundreds of times.
_AST_DUMPS: Dict[Tuple[str, int, int], str] = {}


def _normalized_ast_dump(info, node: ast.AST) -> str:
    """Docstring-stripped, position-free dump of ``info``'s body
    (``node``, its :meth:`source_ast`), memoized."""
    memo = (info.source(), node.lineno, node.col_offset)
    if memo not in _AST_DUMPS:
        cleaned = _StripDocstrings().visit(copy.deepcopy(node))
        _AST_DUMPS[memo] = ast.dump(cleaned)
    return _AST_DUMPS[memo]


def _normalized_body(info) -> Tuple[str, Optional[str], Optional[str]]:
    """``(mode, body text, reason)`` for one process, per the ladder."""
    try:
        from .symbolic.lift import lift_process

        lifted = lift_process(info)
    except Exception as exc:  # lifter crash: degrade, never guess
        lifted = None
        lift_reason = f"lifter failed: {type(exc).__name__}: {exc}"
    else:
        lift_reason = None
    if lifted is not None and lifted.status == "clean":
        body = "\n".join(sorted(a.render() for a in lifted.assigns))
        return MODE_SEMANTIC_IR, body, None
    node = info.source_ast()
    if node is not None:
        try:
            return MODE_SEMANTIC_AST, _normalized_ast_dump(info, node), None
        except Exception as exc:
            lift_reason = (
                f"AST normalization failed: {type(exc).__name__}: {exc}"
            )
    text = info.source()
    if text is not None:
        return MODE_RAW_SOURCE, text, (
            lift_reason or "source recovered but not normalizable"
        )
    return MODE_OPAQUE, None, (
        "source unavailable (inspect.getsource failed)"
    )


def _dataflow_sets(info) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (reads, writes) signal names the dataflow graph uses for
    ``info`` — observed sets for comb, declarations for clocked."""
    if info.kind == "comb":
        reads = {s.name for s in info.sensitivity}
        reads.update(s.name for s in info.observed_reads)
        writes = {s.name for s in info.observed_writes}
    else:
        reads = {s.name for s in (info.declared_reads or ())}
        writes = {s.name for s in (info.declared_writes or ())}
        writes.update(s.name for s, _ in info.declared_tie_offs)
    return tuple(sorted(reads)), tuple(sorted(writes))


def process_fingerprint(info) -> ProcessFingerprint:
    """Semantic fingerprint of one :class:`~repro.kernel.ProcessInfo`."""
    reads, writes = _dataflow_sets(info)
    mode, body, reason = _normalized_body(info)
    if mode == MODE_OPAQUE:
        return ProcessFingerprint(
            name=info.name, kind=info.kind, mode=mode, digest=None,
            reason=reason, reads=reads, writes=writes,
        )
    payload = json.dumps({
        "kind": info.kind,
        "sensitivity": sorted(s.name for s in info.sensitivity),
        "declared_reads": (
            sorted(s.name for s in info.declared_reads)
            if info.declared_reads is not None else None
        ),
        "declared_writes": (
            sorted(s.name for s in info.declared_writes)
            if info.declared_writes is not None else None
        ),
        "tie_offs": sorted(
            [s.name, value] for s, value in info.declared_tie_offs
        ),
        "domain": info.domain,
        "body_mode": mode,
        "body": body,
    }, sort_keys=True)
    return ProcessFingerprint(
        name=info.name, kind=info.kind, mode=mode,
        digest=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        reason=reason, reads=reads, writes=writes,
    )


# ---------------------------------------------------------------------------
# Environment residual hash (everything that is not a process body)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentDigest:
    """Hash of the design-root sources with process bodies elided.

    ``diagnostics`` names files that failed to parse and were hashed
    raw (still sound — raw hashing over-invalidates, never under-).
    """

    digest: str
    n_files: int
    n_elided: int
    diagnostics: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "digest": self.digest,
            "n_files": self.n_files,
            "n_elided": self.n_elided,
            "diagnostics": list(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EnvironmentDigest":
        return cls(
            digest=str(data["digest"]),
            n_files=int(data["n_files"]),  # type: ignore[arg-type]
            n_elided=int(data["n_elided"]),  # type: ignore[arg-type]
            diagnostics=tuple(data.get("diagnostics", ())),  # type: ignore[arg-type]
        )


def process_spans(infos: Iterable) -> Set[Tuple[str, int, str]]:
    """``(absolute file, first line, name)`` of every process callable.

    A process whose underlying function has no code object (e.g. a
    ``functools.partial``) contributes no span — its defining module is
    then hashed with the body *included*, so edits to it invalidate
    everything: conservative, never stale.
    """
    spans: Set[Tuple[str, int, str]] = set()
    for info in infos:
        func = getattr(info.process, "__func__", info.process)
        code = getattr(func, "__code__", None)
        if code is None:
            continue
        try:
            filename = os.path.abspath(code.co_filename)
        except (TypeError, ValueError):  # pragma: no cover - exotic code
            continue
        spans.add((filename, code.co_firstlineno,
                   getattr(func, "__name__", "<unknown>")))
    return spans


@functools.lru_cache(maxsize=None)
def matrix_process_spans() -> FrozenSet[Tuple[str, int, str]]:
    """Spans of every process any ``configuration_matrix()`` design
    registers: a set fixed by the sources alone."""
    from ..lint.runner import build_env
    from ..regression.configs import configuration_matrix

    infos: List[object] = []
    for config in configuration_matrix():
        for view in DEFAULT_VIEWS:
            sim = build_env(config, view).sim
            infos.extend(sim.comb_processes + sim.clocked_processes)
    return frozenset(process_spans(infos))


class _ElideProcessBodies(_StripDocstrings):
    """Strip docstrings and replace registered process bodies with
    placeholders, so the residual dump captures exactly the
    non-process content of a module."""

    def __init__(self, spans: Set[Tuple[int, str]],
                 lambda_lines: Dict[int, int]) -> None:
        #: (lineno, name) pairs to elide; lambdas use name "<lambda>".
        self.spans = spans
        #: lineno -> number of lambdas on that line; an ambiguous line
        #: (several lambdas) is never elided — conservative.
        self.lambda_lines = lambda_lines
        self.n_elided = 0

    def _matches(self, node, name: str) -> bool:
        if (node.lineno, name) in self.spans:
            return True
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            return (decorators[0].lineno, name) in self.spans
        return False

    def _visit_def(self, node):
        node = self.generic_visit(node)
        if self._matches(node, node.name):
            self.n_elided += 1
            node.body = [ast.Pass()]
        return node

    def visit_FunctionDef(self, node):  # noqa: N802 (ast API)
        return self._visit_def(node)

    def visit_AsyncFunctionDef(self, node):  # noqa: N802 (ast API)
        return self._visit_def(node)

    def visit_Lambda(self, node):  # noqa: N802 (ast API)
        node = self.generic_visit(node)
        if self._matches(node, "<lambda>") \
                and self.lambda_lines.get(node.lineno, 0) == 1:
            self.n_elided += 1
            node.body = ast.Constant(value=0)
        return node


def _normalize_newlines(data: bytes) -> bytes:
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def environment_digest(
    spans: Set[Tuple[str, int, str]],
    roots: Sequence[str] = DESIGN_ROOTS,
) -> EnvironmentDigest:
    """Residual hash of the design roots with process bodies elided."""
    package_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    by_file: Dict[str, Set[Tuple[int, str]]] = {}
    for filename, lineno, name in spans:
        by_file.setdefault(filename, set()).add((lineno, name))
    digest = hashlib.sha256()
    n_files = 0
    n_elided = 0
    diagnostics: List[str] = []
    for root in roots:
        root_dir = os.path.join(package_dir, root)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = sorted(
                d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, package_dir)
                with open(full, "rb") as handle:
                    raw = _normalize_newlines(handle.read())
                try:
                    tree = ast.parse(raw.decode("utf-8"))
                    lambda_lines: Dict[int, int] = {}
                    for node in ast.walk(tree):
                        if isinstance(node, ast.Lambda):
                            lambda_lines[node.lineno] = (
                                lambda_lines.get(node.lineno, 0) + 1)
                    eliding = _ElideProcessBodies(
                        by_file.get(os.path.abspath(full), set()),
                        lambda_lines,
                    )
                    body = ast.dump(eliding.visit(tree)).encode("utf-8")
                    n_elided += eliding.n_elided
                except (SyntaxError, UnicodeDecodeError) as exc:
                    # Unparsable file: hash it raw (comment edits in it
                    # will over-invalidate; never under-invalidate).
                    body = raw
                    diagnostics.append(f"{rel}: hashed raw ({exc})")
                digest.update(rel.encode("utf-8"))
                digest.update(b"\0")
                digest.update(body)
                digest.update(b"\0")
                n_files += 1
    return EnvironmentDigest(
        digest=digest.hexdigest(), n_files=n_files, n_elided=n_elided,
        diagnostics=tuple(sorted(diagnostics)),
    )


# ---------------------------------------------------------------------------
# Per-(config, view) fingerprints and the manifest
# ---------------------------------------------------------------------------


@dataclass
class DesignFingerprints:
    """Fingerprints of every process of one (config, view) design."""

    config_name: str
    view: str
    config_digest: str
    processes: Dict[str, ProcessFingerprint] = field(default_factory=dict)

    @property
    def opaque_processes(self) -> Tuple[str, ...]:
        return tuple(sorted(
            name for name, fp in self.processes.items()
            if fp.mode == MODE_OPAQUE
        ))

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why this design cannot use a cone-scoped key (or ``None``)."""
        opaque = self.opaque_processes
        if opaque:
            return ("opaque-process: unrecoverable source for "
                    + ", ".join(opaque))
        return None

    def design_key(self, environment: EnvironmentDigest,
                   whole_design: str) -> str:
        """The cone-scoped design key: the environment residual hash
        plus the sorted fingerprints of every process in the fan-in
        cone of the observed signals.  A full-trace run observes every
        signal (VCD + checkers + coverage probe), so the cone is the
        whole process set of *this* design — still per-(config, view),
        which is where the scoping power lives.  Any opaque process
        degrades to the monolithic design hash: conservative, never
        stale."""
        if self.fallback_reason is not None:
            return whole_design
        payload = json.dumps({
            "schema": MANIFEST_SCHEMA,
            "environment": environment.digest,
            "processes": sorted(
                (name, fp.digest) for name, fp in self.processes.items()
            ),
        }, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "view": self.view,
            "config_digest": self.config_digest,
            "processes": {
                name: fp.to_dict()
                for name, fp in sorted(self.processes.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DesignFingerprints":
        processes = {
            name: ProcessFingerprint.from_dict(name, fp)
            for name, fp in data.get("processes", {}).items()  # type: ignore[union-attr]
        }
        return cls(
            config_name=str(data["config"]),
            view=str(data["view"]),
            config_digest=str(data["config_digest"]),
            processes=processes,
        )


def _design_label(config_name: str, view: str) -> str:
    return f"{config_name}::{view}"


def _config_digest(config) -> str:
    # Resolve the address map first, exactly like the cache key does:
    # elaboration materializes the default map onto the config, so a
    # resolved and an unresolved copy must fingerprint identically.
    config.resolved_map
    return hashlib.sha256(config.to_text().encode("utf-8")).hexdigest()


def design_fingerprints(config, view: str):
    """Build one design and fingerprint it.

    Returns ``(DesignFingerprints, DesignGraph)`` — the graph is kept so
    the impact closure can run fan-out cones without re-elaborating.
    """
    from ..lint.graph import DesignGraph
    from ..lint.runner import build_env

    env = build_env(config, view)
    graph = DesignGraph.from_simulator(env.sim)
    fingerprints = DesignFingerprints(
        config_name=config.name, view=view,
        config_digest=_config_digest(config),
    )
    names_seen: Dict[str, int] = {}
    for info in list(graph.comb) + list(graph.clocked):
        fp = process_fingerprint(info)
        name = fp.name
        # Registration names are unique in practice; if a design ever
        # reuses one, disambiguate deterministically by occurrence.
        count = names_seen.get(name, 0)
        names_seen[name] = count + 1
        if count:
            name = f"{name}#{count}"
        fingerprints.processes[name] = fp
    return fingerprints, graph


@dataclass
class DesignManifest:
    """Schema-versioned snapshot of every design's fingerprints."""

    design_hash: str
    environment: EnvironmentDigest
    designs: Dict[str, DesignFingerprints] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "design_hash": self.design_hash,
            "environment": self.environment.to_dict(),
            "designs": {
                label: design.to_dict()
                for label, design in sorted(self.designs.items())
            },
        }

    @classmethod
    def from_dict(cls, data: object) -> "DesignManifest":
        if not isinstance(data, dict):
            raise ManifestError(
                f"manifest must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ManifestError(
                f"manifest schema {schema!r} is not {MANIFEST_SCHEMA!r}; "
                "rebuild the baseline with this checkout")
        try:
            return cls(
                design_hash=str(data["design_hash"]),
                environment=EnvironmentDigest.from_dict(
                    data["environment"]),
                designs={
                    label: DesignFingerprints.from_dict(design)
                    for label, design in data["designs"].items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}")

    def write(self, path: str) -> None:
        with atomic_write(path) as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "DesignManifest":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path!r}: {exc}")
        except ValueError as exc:
            raise ManifestError(f"manifest {path!r} is not JSON: {exc}")
        return cls.from_dict(data)

    @property
    def n_processes(self) -> int:
        return sum(len(d.processes) for d in self.designs.values())


# ---------------------------------------------------------------------------
# The index: eager fingerprints + cone-scoped key resolution
# ---------------------------------------------------------------------------


class ImpactIndex:
    """Fingerprints and cone-scoped design keys of every (config, view)
    of one batch.

    The environment residual hash, shared by all keys, elides the body
    of every process the batch's designs or the configuration matrix
    (:func:`matrix_process_spans`) register, so a design's key does not
    depend on which other configurations share its batch.
    """

    def __init__(self, configs: Sequence,
                 views: Sequence[str] = DEFAULT_VIEWS) -> None:
        self.views = tuple(views)
        self.designs: Dict[str, DesignFingerprints] = {}
        self.graphs: Dict[str, object] = {}
        self.whole_design = design_source_hash()
        infos: List[object] = []
        for config in configs:
            for view in self.views:
                label = _design_label(config.name, view)
                if label in self.designs:
                    continue
                fingerprints, graph = design_fingerprints(config, view)
                self.designs[label] = fingerprints
                self.graphs[label] = graph
                infos.extend(list(graph.comb) + list(graph.clocked))
        self.environment = environment_digest(
            process_spans(infos) | matrix_process_spans())
        #: label -> the design's key record: its ``impact.design-key``
        #: run-log event, plus per-rung process counts (``modes``).
        self.records: Dict[str, Dict[str, object]] = {}
        for label, design in sorted(self.designs.items()):
            fallback = design.fallback_reason
            self.records[label] = {
                "event": "impact.design-key", "design": label,
                "mode": "cone" if fallback is None else "whole-design",
                "key": design.design_key(self.environment, self.whole_design),
                **({} if fallback is None else {"reason": fallback}),
                "modes": dict(sorted(Counter(
                    fp.mode for fp in design.processes.values()).items())),
            }
        self.events = list(self.records.values())

    def counters(self) -> Dict[str, int]:
        return impact_counters(self.records.values())

    def design_key(self, config_name: str, view: str) -> str:
        """The cone-scoped key component for one (config, view); the
        monolithic design hash for designs this index never saw (a job
        outside the indexed batch must not get a fabricated key)."""
        return self.records.get(_design_label(config_name, view), {
            "key": self.whole_design})["key"]  # type: ignore[return-value]

    def manifest(self) -> DesignManifest:
        return DesignManifest(
            design_hash=self.whole_design,
            environment=self.environment,
            designs=dict(self.designs),
        )


def build_manifest(configs: Sequence,
                   views: Sequence[str] = DEFAULT_VIEWS) -> DesignManifest:
    """Fingerprint ``configs`` under the current sources."""
    return ImpactIndex(configs, views=views).manifest()


# ---------------------------------------------------------------------------
# Manifest differ + change-impact closure
# ---------------------------------------------------------------------------


@dataclass
class DesignImpact:
    """Impact classification for one (config, view) design.

    ``affected`` means the design's cache entries must re-execute;
    ``reason`` says why (or ``"unchanged"``).  For process-level
    changes, ``affected_signals`` is the union of the changed
    processes' fan-out cones — the signals a re-run can legitimately
    change.
    """

    config_name: str
    view: str
    affected: bool
    reason: str
    changed_processes: Tuple[str, ...] = ()
    affected_signals: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return _design_label(self.config_name, self.view)

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "view": self.view,
            "affected": self.affected,
            "reason": self.reason,
            "changed_processes": list(self.changed_processes),
            "affected_signals": list(self.affected_signals),
        }


@dataclass
class ImpactReport:
    """What changed between two manifests and what must re-run."""

    baseline_design_hash: str
    current_design_hash: str
    environment_changed: bool
    designs: List[DesignImpact] = field(default_factory=list)

    @property
    def affected(self) -> List[DesignImpact]:
        return [d for d in self.designs if d.affected]

    @property
    def unaffected(self) -> List[DesignImpact]:
        return [d for d in self.designs if not d.affected]

    @property
    def changed_processes(self) -> Tuple[str, ...]:
        out: Set[str] = set()
        for design in self.designs:
            out.update(design.changed_processes)
        return tuple(sorted(out))

    @property
    def rerun_fraction(self) -> float:
        if not self.designs:
            return 0.0
        return len(self.affected) / len(self.designs)

    def to_dict(self) -> Dict[str, object]:
        from . import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "baseline_design_hash": self.baseline_design_hash,
            "current_design_hash": self.current_design_hash,
            "environment_changed": self.environment_changed,
            "changed_processes": list(self.changed_processes),
            "n_designs": len(self.designs),
            "n_affected": len(self.affected),
            "rerun_fraction": round(self.rerun_fraction, 4),
            "designs": [d.to_dict() for d in self.designs],
        }

    def render(self) -> str:
        lines = [
            "Change impact: "
            f"{len(self.affected)}/{len(self.designs)} design(s) affected "
            f"({self.rerun_fraction * 100:.1f}% predicted re-run)",
        ]
        if self.environment_changed:
            lines.append(
                "  environment changed (non-process design code): every "
                "entry re-runs")
        changed = self.changed_processes
        if changed:
            lines.append(f"  changed processes ({len(changed)}):")
            for name in changed:
                lines.append(f"    {name}")
        for design in self.designs:
            if not design.affected:
                continue
            lines.append(
                f"  AFFECTED {design.label}: {design.reason}")
            if design.changed_processes:
                lines.append(
                    "    processes: "
                    + ", ".join(design.changed_processes))
            if design.affected_signals:
                shown = design.affected_signals[:8]
                suffix = (
                    f" (+{len(design.affected_signals) - len(shown)} more)"
                    if len(design.affected_signals) > len(shown) else ""
                )
                lines.append(
                    "    fan-out cone: " + ", ".join(shown) + suffix)
        unaffected = self.unaffected
        if unaffected:
            lines.append(
                f"  provably unaffected ({len(unaffected)}): "
                + ", ".join(d.label for d in unaffected))
        lines.append(
            "  predicted re-run set: every (test, seed) of the affected "
            "designs; all other cache entries stay warm")
        return "\n".join(lines) + "\n"


def affected_signal_cone(graph, process_names: Iterable[str]
                         ) -> Tuple[str, ...]:
    """Fan-out closure of the named processes' writes over ``graph``
    (a :class:`~repro.lint.graph.DesignGraph`): the written signals
    plus everything they can transitively influence."""
    from .dataflow import DataflowGraph

    dataflow = DataflowGraph(graph)
    by_name = {sig.name: sig for sig in graph.signals}
    wanted = set(process_names)
    affected: Set[str] = set()
    for info in list(graph.comb) + list(graph.clocked):
        if info.name not in wanted:
            continue
        _, writes = _dataflow_sets(info)
        for name in writes:
            affected.add(name)
            sig = by_name.get(name)
            if sig is not None:
                affected.update(
                    s.name for s in dataflow.fan_out_cone(sig))
    return tuple(sorted(affected))


def diff_manifests(
    baseline: DesignManifest,
    current: DesignManifest,
    graphs: Optional[Dict[str, object]] = None,
) -> ImpactReport:
    """Classify every design of two manifests as affected or provably
    unaffected.  Every uncertain case (schema'd fallback, missing
    design, environment change) classifies as affected — the differ
    never guesses a design safe."""
    env_changed = (
        baseline.environment.digest != current.environment.digest)
    report = ImpactReport(
        baseline_design_hash=baseline.design_hash,
        current_design_hash=current.design_hash,
        environment_changed=env_changed,
    )
    for label in sorted(set(baseline.designs) | set(current.designs)):
        base = baseline.designs.get(label)
        cur = current.designs.get(label)
        anchor = cur if cur is not None else base
        config_name, view = anchor.config_name, anchor.view
        if base is None or cur is None:
            report.designs.append(DesignImpact(
                config_name=config_name, view=view, affected=True,
                reason=("design added since baseline" if base is None
                        else "design removed since baseline"),
            ))
            continue
        if env_changed:
            report.designs.append(DesignImpact(
                config_name=config_name, view=view, affected=True,
                reason="environment changed (non-process design code)",
            ))
            continue
        fallback = base.fallback_reason or cur.fallback_reason
        if fallback is not None:
            report.designs.append(DesignImpact(
                config_name=config_name, view=view, affected=True,
                reason=f"conservative fallback ({fallback})",
            ))
            continue
        if base.config_digest != cur.config_digest:
            report.designs.append(DesignImpact(
                config_name=config_name, view=view, affected=True,
                reason="configuration text changed",
            ))
            continue
        changed = sorted(
            set(base.processes) ^ set(cur.processes)
            | {
                name for name in set(base.processes) & set(cur.processes)
                if base.processes[name].digest != cur.processes[name].digest
            }
        )
        if not changed:
            report.designs.append(DesignImpact(
                config_name=config_name, view=view, affected=False,
                reason="unchanged",
            ))
            continue
        signals: Tuple[str, ...] = ()
        graph = (graphs or {}).get(label)
        if graph is not None:
            signals = affected_signal_cone(graph, changed)
        report.designs.append(DesignImpact(
            config_name=config_name, view=view, affected=True,
            reason=f"{len(changed)} semantically-changed process(es)",
            changed_processes=tuple(changed),
            affected_signals=signals,
        ))
    return report
