"""The content-addressed, on-disk trace store.

Role
----
The paper's offline phase (Appendix A) assumes a corpus of labeled
execution logs collected once and re-analyzed many times.  This module
is that corpus made durable: each trace is serialized via
:mod:`repro.sim.serialize` and stored under its content fingerprint, so
ingesting the same execution twice stores it once, and the manifest
records labels, seeds, and failure signatures so analyses can plan
without touching trace bodies.

Persistence format (v4)
-----------------------
::

    DIR/
      manifest.json          version, program, and one row per trace
                             (label, seed, failure signature, schedule)
      traces/<fp>.json       one serialized trace each
      evalmatrix.json        the predicate-evaluation memo (written by
                             repro.corpus.matrix)
      suite.json             the frozen predicate suite, keyed by the
                             corpus content

Invariants
----------
* every manifest row has its body at ``traces/<fp>.json``, so ``open``
  reads one file and never scans the filesystem;
* every file is written atomically (temp file + rename), and ``save``
  rewrites the manifest only when a row changed.

Migration
---------
:meth:`TraceStore.open` brings a version-1, -2 or -3 store to v4 in
place with one migration (:func:`_migrate`).  Version 1 is already
flat, so only its manifest is rewritten.  Versions 2 and 3 kept traces
in fingerprint-prefix buckets (``shards/<sid>/``, each with its own
manifest and eval matrix): their bodies move to ``traces/``, their
manifests fold into one, and their matrices fold into one
``evalmatrix.json`` through
:func:`~repro.corpus.matrix.merge_matrices`, which keeps every memoized
(predicate, trace) pair, so the first analysis afterwards evaluates
nothing afresh.  The v4 manifest write is the commit point and
``shards/`` is removed after it; every earlier step can be repeated, so
a re-open after a crash at any step resumes the migration.
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from ..harness.runner import LabeledCorpus
from ..sim.serialize import (
    ImportedTrace,
    stable_digest,
    trace_from_dict,
    trace_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matrix import ShardedEvalMatrix

MANIFEST_NAME = "manifest.json"
MATRIX_NAME = "evalmatrix.json"
SUITE_NAME = "suite.json"
TRACES_DIR = "traces"
#: where version-2 and -3 stores kept their fingerprint-prefix buckets
SHARDS_DIR = "shards"
STORE_VERSION = 4
SUITE_FILE_VERSION = 1
#: version of the ``repro corpus stats --json`` payload
STATS_SCHEMA_VERSION = 2


class CorpusError(RuntimeError):
    """The corpus directory is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class TraceEntry:
    """Manifest row: everything known about one stored trace."""

    fingerprint: str
    label: str  # "pass" | "fail"
    seed: int
    signature: Optional[str]  # failure signature, None for passes
    #: schedule (interleaving) signature when the producer recorded one
    #: (the exploration driver stamps it); ``None`` for plain ingests
    schedule: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.label == "fail"

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "seed": self.seed,
            "signature": self.signature,
        }
        # Written only when present, so manifests without schedule
        # provenance stay byte-identical to what older builds wrote.
        if self.schedule is not None:
            payload["schedule"] = self.schedule
        return payload

    @classmethod
    def from_dict(cls, fingerprint: str, raw: dict) -> "TraceEntry":
        return cls(
            fingerprint=fingerprint,
            label=raw["label"],
            seed=raw["seed"],
            signature=raw.get("signature"),
            schedule=raw.get("schedule"),
        )


def _read_json(path: Path) -> dict:
    """Parse one corpus JSON file that must hold an object; anything
    else (unreadable, truncated, garbage, a bare list) is a
    :class:`CorpusError` naming the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CorpusError(f"{path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorpusError(
            f"{path} is malformed: expected a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _write_json(path: Path, payload: dict, indent: Optional[int] = 2) -> None:
    """Atomic JSON write: temp file in the same directory + rename.

    The temp name is unique per write, so two writers to one corpus
    (``explore --corpus`` next to ``corpus ingest``) never clobber each
    other's temp file; it is created with the default file mode, and
    removed again if the write or the rename fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x") as handle:
            handle.write(json.dumps(payload, indent=indent, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class TraceStore:
    """A persistent, deduplicating corpus of execution traces."""

    def __init__(
        self,
        root: str | os.PathLike,
        program: Optional[str] = None,
        entries: Optional[dict[str, TraceEntry]] = None,
    ) -> None:
        self.root = Path(root)
        self._program = program
        self.entries: dict[str, TraceEntry] = dict(entries or {})
        #: a manifest row changed since open (or the last save)
        self._dirty = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def init(
        cls, root: str | os.PathLike, program: Optional[str] = None
    ) -> "TraceStore":
        """Create a fresh corpus directory (refuses to clobber one)."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise CorpusError(f"{root} already holds a corpus")
        (root / TRACES_DIR).mkdir(parents=True, exist_ok=True)
        store = cls(root, program=program)
        store._dirty = True
        store.save()
        return store

    @classmethod
    def open(cls, root: str | os.PathLike) -> "TraceStore":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.exists():
            raise CorpusError(f"{root} is not a corpus (no {MANIFEST_NAME})")
        manifest = _read_json(path)
        version = manifest.get("version")
        if version in (1, 2, 3):
            manifest = _migrate(root, manifest)
        elif version != STORE_VERSION:
            raise CorpusError(
                f"unsupported corpus version {version!r} in {path}"
            )
        # Left behind only by a migration interrupted after its commit.
        if (root / SHARDS_DIR).exists():
            shutil.rmtree(root / SHARDS_DIR)
        return cls(
            root,
            program=manifest.get("program"),
            entries={
                fp: TraceEntry.from_dict(fp, row)
                for fp, row in sorted(manifest.get("traces", {}).items())
            },
        )

    def save(self) -> None:
        """Write the manifest atomically (temp file + rename) when a row
        changed since open or the last save."""
        if not self._dirty:
            return
        _write_json(
            self.root / MANIFEST_NAME,
            {
                "version": STORE_VERSION,
                "program": self._program,
                "traces": {
                    fp: e.to_dict() for fp, e in self.entries.items()
                },
            },
        )
        self._dirty = False

    # -- identity and layout ---------------------------------------------

    @property
    def program(self) -> Optional[str]:
        """The program name every stored trace must come from (pinned at
        init or by the first ingested trace)."""
        return self._program

    @property
    def matrix_path(self) -> Path:
        """Where the eval matrix lives (see repro.corpus.matrix)."""
        return self.root / MATRIX_NAME

    def trace_path(self, fingerprint: str) -> Path:
        return self.root / TRACES_DIR / f"{fingerprint}.json"

    def eval_matrix(self) -> "ShardedEvalMatrix":
        """The persistent predicate-evaluation memo over this store."""
        from .matrix import ShardedEvalMatrix

        return ShardedEvalMatrix(self)

    @property
    def content_digest(self) -> str:
        """Stable digest of the corpus *content*: the sorted trace
        fingerprints.  Two corpora hold the same executions iff their
        digests match, however they were assembled — the key persisted
        artifacts (the frozen predicate suite, memoized intervention
        outcomes) are filed under."""
        return stable_digest(sorted(self.entries))

    # -- the persisted predicate suite ----------------------------------

    @property
    def suite_path(self) -> Path:
        return self.root / SUITE_NAME

    def save_suite(
        self,
        suite,
        signature: Optional[str] = None,
        program: Optional[str] = None,
    ) -> Path:
        """Persist a frozen :class:`~repro.core.extraction.PredicateSuite`
        keyed by the current :attr:`content_digest`, so a later analyze
        over the *same* corpus content skips extractor rediscovery
        entirely.  ``program`` records which live program's safety
        filter shaped the suite (``None`` for an unattached analysis)."""
        payload = {
            "version": SUITE_FILE_VERSION,
            "corpus_digest": self.content_digest,
            "program": program,
            "signature": signature,
            "suite": suite.to_dict(),
        }
        _write_json(self.suite_path, payload, indent=None)
        return self.suite_path

    def load_suite(self, program: Optional[str] = None):
        """The persisted suite, or ``None`` when it cannot stand in for
        rediscovery: missing file, unknown version, a corpus whose
        content changed since the suite froze (extractor thresholds are
        calibrated on the whole corpus), or a different attached
        program (the Section 3.3 safety filter depends on it)."""
        path = self.suite_path
        if not path.exists():
            return None
        try:
            payload = _read_json(path)
        except CorpusError:
            return None
        if payload.get("version") != SUITE_FILE_VERSION:
            return None
        if payload.get("corpus_digest") != self.content_digest:
            return None
        if payload.get("program") != program:
            return None
        from ..core.extraction import PredicateSuite

        try:
            return PredicateSuite.from_dict(payload["suite"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- ingestion -------------------------------------------------------

    def ingest(
        self, trace, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """Add one trace (live or imported); returns ``(fp, added)``.

        Dedup is content-addressed: the fingerprint is the stable digest
        of the serialized trace, so re-ingesting an identical execution
        is a no-op.  ``schedule_signature`` stamps the interleaving
        identity (:meth:`repro.sim.schedule.Schedule.signature`) into
        the manifest row when the producer recorded one.  Call
        :meth:`save` after a batch to persist the manifests.
        """
        payload = trace_to_dict(trace)
        return self.ingest_payload(
            payload, schedule_signature=schedule_signature
        )

    def ingest_payload(
        self, payload: dict, schedule_signature: Optional[str] = None
    ) -> tuple[str, bool]:
        """Add one already-serialized trace payload; returns ``(fp, added)``."""
        # Validate eagerly — a malformed payload must fail on ingest, not
        # years later mid-analysis.  Also checks the schema version.
        trace = trace_from_dict(payload)
        if self._program is None:
            self._program = trace.program_name
        elif trace.program_name != self._program:
            raise CorpusError(
                f"trace is from program {trace.program_name!r}, but this "
                f"corpus holds {self._program!r}"
            )
        fp = stable_digest(payload)
        existing = self.entries.get(fp)
        if existing is not None:
            if schedule_signature is not None and existing.schedule is None:
                # Enrich a duplicate with the provenance it lacked.
                self.entries[fp] = dataclasses.replace(
                    existing, schedule=schedule_signature
                )
                self._dirty = True
            return fp, False
        path = self.trace_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, sort_keys=True))
        self.entries[fp] = TraceEntry(
            fingerprint=fp,
            label="fail" if trace.failed else "pass",
            seed=trace.seed,
            signature=(
                trace.failure.signature if trace.failure is not None else None
            ),
            schedule=schedule_signature,
        )
        self._dirty = True
        return fp, True

    def evict(self, fingerprint: str) -> bool:
        """Drop one trace from the manifest and delete its body.

        Returns whether anything was evicted.  The eval matrix keeps the
        trace's memoized column until ``repro corpus compact`` reclaims
        it (see :meth:`~repro.corpus.matrix.ShardedEvalMatrix.compact`).
        """
        entry = self.entries.pop(fingerprint, None)
        if entry is None:
            return False
        self.trace_path(fingerprint).unlink(missing_ok=True)
        self._dirty = True
        return True

    # -- retrieval -------------------------------------------------------

    def load(self, fingerprint: str) -> ImportedTrace:
        entry = self.entries.get(fingerprint)
        if entry is None:
            raise CorpusError(f"no trace {fingerprint!r} in this corpus")
        path = self.trace_path(fingerprint)
        if not path.exists():
            raise CorpusError(f"manifest lists {fingerprint} but {path} is gone")
        return trace_from_dict(
            _read_json(path), fingerprint=fingerprint
        )

    def traces(self, label: Optional[str] = None) -> Iterator[ImportedTrace]:
        """All stored traces (optionally one label), fingerprint order."""
        for fp, entry in sorted(self.entries.items()):
            if label is None or entry.label == label:
                yield self.load(fp)

    def labeled_corpus(self) -> LabeledCorpus:
        """The stored traces as a :class:`LabeledCorpus` (every loaded
        trace carries its ``fingerprint``)."""
        corpus = LabeledCorpus()
        for trace in self.traces():
            (corpus.failures if trace.failed else corpus.successes).append(trace)
        return corpus

    # -- bookkeeping -----------------------------------------------------

    @property
    def n_pass(self) -> int:
        return sum(1 for e in self.entries.values() if not e.failed)

    @property
    def n_fail(self) -> int:
        return sum(1 for e in self.entries.values() if e.failed)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def signature_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries.values():
            if e.signature is not None:
                counts[e.signature] = counts.get(e.signature, 0) + 1
        return counts

    def dominant_failure_signature(self) -> Optional[str]:
        counts = self.signature_counts()
        if not counts:
            return None
        return max(sorted(counts), key=lambda s: counts[s])

    def schedule_counts(self) -> dict[str, int]:
        """Distinct recorded schedule signatures per label — the
        fuzzing-progress number: how many *interleavings* (not merely
        traces) each label has accumulated.  Traces ingested without
        schedule provenance do not count."""
        schedules: dict[str, set[str]] = {"pass": set(), "fail": set()}
        for e in self.entries.values():
            if e.schedule is not None:
                schedules[e.label].add(e.schedule)
        return {label: len(sigs) for label, sigs in schedules.items()}

    def schedule_counts_by_signature(self) -> dict[str, int]:
        """Distinct recorded schedules per failure signature — schedule
        diversity within each debugged bug."""
        schedules: dict[str, set[str]] = {}
        for e in self.entries.values():
            if e.signature is not None and e.schedule is not None:
                schedules.setdefault(e.signature, set()).add(e.schedule)
        return {sig: len(s) for sig, s in schedules.items()}

    def stats_dict(self) -> dict:
        """The ``repro corpus stats --json`` payload: a versioned,
        machine-readable snapshot of corpus and eval-matrix health —
        what a service health check polls instead of screen-scraping
        the text stats (mirrors the report-schema pattern: a ``schema``
        field, sorted keys, pure function of the stored state)."""
        matrix = self.eval_matrix().matrix
        return {
            "schema": STATS_SCHEMA_VERSION,
            "dir": str(self.root),
            "program": self.program,
            "traces": {
                "total": len(self),
                "pass": self.n_pass,
                "fail": self.n_fail,
            },
            "signatures": dict(sorted(self.signature_counts().items())),
            "schedules": {
                **self.schedule_counts(),
                "by_signature": dict(
                    sorted(self.schedule_counts_by_signature().items())
                ),
            },
            "matrix": {
                "predicates": matrix.n_pids,
                "traces": len(matrix.traces),
                "pairs": matrix.n_pairs,
                "coverage": round(matrix.coverage(), 6),
            },
        }


def _migrate(root: Path, manifest: dict) -> dict:
    """Bring a version-1, -2 or -3 store to the current layout in place
    and return the new manifest (see the module docstring).

    Each step before the commit can be repeated: a bucket matrix fold
    already written replaces the old matrix index (and is kept on a
    re-run), and a body already under ``traces/`` is not moved again.
    """
    if manifest["version"] == 1:
        rows = manifest.get("traces", {})
    else:
        rows = _fold_buckets(root, manifest)
    migrated = {
        "version": STORE_VERSION,
        "program": manifest.get("program"),
        "traces": rows,
    }
    _write_json(root / MANIFEST_NAME, migrated)  # the commit point
    return migrated


def _fold_buckets(root: Path, manifest: dict) -> dict:
    """Fold a version-2/-3 store's buckets into the flat layout (bucket
    matrices into one matrix, bodies into ``traces/``) and return its
    manifest rows; the caller commits them."""
    from .matrix import MATRIX_VERSION, EvalMatrix, merge_matrices

    width = manifest.get("shard_width", 2)
    buckets = root / SHARDS_DIR

    def bucket(fp: str) -> str:
        return fp[:width] if width else "all"

    def of_this_width(sid: str) -> bool:
        # an interrupted resharding could leave other-width ids behind
        if width == 0:
            return sid == "all"
        return len(sid) == width and all(c in "0123456789abcdef" for c in sid)

    listed = manifest.get("shards", [])
    rows: dict[str, dict] = {}
    for sid in listed:
        rows.update(_read_json(buckets / sid / MANIFEST_NAME).get("traces", {}))

    matrix_path = root / MATRIX_NAME
    index = _read_json(matrix_path) if matrix_path.exists() else {}
    if index.get("version") != MATRIX_VERSION:  # not folded yet
        sids = sorted(
            {*listed, *filter(of_this_width, index.get("shards", []))}
        )
        merged = merge_matrices(
            EvalMatrix(buckets / sid / MATRIX_NAME) for sid in sids
        )
        if merged.traces:
            merged.save(matrix_path)
        else:
            matrix_path.unlink(missing_ok=True)

    (root / TRACES_DIR).mkdir(exist_ok=True)
    for fp in rows:
        body = root / TRACES_DIR / f"{fp}.json"
        if body.exists():
            continue
        old = buckets / bucket(fp) / TRACES_DIR / f"{fp}.json"
        if not old.exists():
            raise CorpusError(
                f"cannot migrate {root}: manifest lists {fp} but {old} "
                "is gone"
            )
        os.replace(old, body)
    return rows
