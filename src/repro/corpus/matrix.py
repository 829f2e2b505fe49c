"""The predicates × traces evaluation matrix — bitset-backed and
persisted.

Role
----
Predicate evaluation is the corpus pipeline's hot loop: every analysis
needs ``suite.evaluate(trace)`` for every stored trace, and extractors
re-propose largely the same predicates run after run.  The matrix
guarantees each (predicate, trace) pair is evaluated **at most once
corpus-wide**:

* columns are traces (keyed by content fingerprint), rows are predicates
  (keyed by pid);
* per pid, two Python-int bitsets over the columns — ``evaluated`` (the
  pair has been decided) and ``observed`` (the predicate held) — give
  O(1) memo checks and popcount-cheap precision/recall counting;
* observation windows (what the AC-DAG anchors on) are kept in a side
  table only for observed pairs.

Invariants
----------
* a (predicate, trace) pair is evaluated at most once corpus-wide: a
  decided pair is always answered from the bitsets, and a trace whose
  every pair is decided is never loaded (the manifest supplies its
  label, seed and failure signature);
* pids do not encode every predicate parameter (a ``slow[...]``
  threshold moves as the corpus grows), so each row also records the
  predicate's full
  :meth:`~repro.core.predicates.PredicateDef.definition_digest`; a row
  whose definition drifted is dropped and re-evaluated rather than
  served stale.

Persistence format
------------------
One :class:`EvalMatrix` serializes to a single JSON file (format
version 1): column fingerprints + labels, hex-encoded bitsets per pid,
definition digests, and observation windows.  A corpus keeps one such
file, ``DIR/evalmatrix.json``, behind a :class:`ShardedEvalMatrix`,
which writes it only when it changed, so a warm analyze writes nothing.
A truncated or malformed file is a
:class:`~repro.corpus.store.CorpusError` naming it.
:func:`merge_matrices` folds the per-bucket matrices of a version-2/-3
store into one when :meth:`~repro.corpus.store.TraceStore.open`
migrates it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

from ..core.extraction import PredicateSuite
from ..core.predicates import Observation
from ..core.statistical import IncrementalDebugger, PredicateLog
from .store import CorpusError, _read_json, _write_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import TraceStore

MATRIX_VERSION = 1


def _obs_to_list(obs: Observation) -> list:
    return [obs.start, obs.end, obs.start_lamport, obs.end_lamport]


def _obs_from_list(raw: list) -> Observation:
    return Observation(
        start=raw[0], end=raw[1], start_lamport=raw[2], end_lamport=raw[3]
    )


class EvalMatrix:
    """Memoized boolean matrix of predicate evaluations over a corpus."""

    def __init__(self, path: Optional[str | os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        #: column order: trace fingerprints
        self.traces: list[str] = []
        self._column: dict[str, int] = {}
        #: aligned with ``traces``: did that execution fail?
        self.labels: list[bool] = []
        #: pid -> bitset over columns (bit set = pair decided)
        self.evaluated: dict[str, int] = {}
        #: pid -> bitset over columns (bit set = predicate observed)
        self.observed: dict[str, int] = {}
        #: pid -> definition digest the row was evaluated under
        self.digests: dict[str, str] = {}
        #: fp -> {pid: [start, end, start_lamport, end_lamport]}
        self.observations: dict[str, dict[str, list]] = {}
        #: fresh predicate evaluations / memo hits, this instance
        self.pair_evaluations = 0
        self.pair_hits = 0
        #: single-pass kernel batches the fresh pairs rode in on —
        #: ``pair_evaluations / kernel_calls`` is the mean batch size
        self.kernel_calls = 0
        #: (suite, {pid: digest}) — definition digests are a pure
        #: function of the frozen suite, so computing them per (pid,
        #: trace) pair would dominate warm evaluation
        self._digest_cache: Optional[tuple] = None
        #: cached failed-column mask, invalidated on column allocation
        self._failed_mask: Optional[int] = None
        #: changed since load (or the last save): a column was
        #: allocated, a pair decided, or a row or column dropped —
        #: :meth:`ShardedEvalMatrix.save` writes only a dirty matrix
        self.dirty = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def _digests_for(self, suite: PredicateSuite) -> dict[str, str]:
        """Per-suite digest table, computed once (the suite is frozen)."""
        cache = self._digest_cache
        if cache is None or cache[0] is not suite:
            cache = (
                suite,
                {
                    pid: pred.definition_digest()
                    for pid, pred in suite.defs.items()
                },
            )
            self._digest_cache = cache
        return cache[1]

    # -- columns ---------------------------------------------------------

    def column(self, fingerprint: str, failed: bool) -> int:
        """Index of the trace's column, allocating it if new."""
        idx = self._column.get(fingerprint)
        if idx is None:
            idx = len(self.traces)
            self.traces.append(fingerprint)
            self.labels.append(bool(failed))
            self._column[fingerprint] = idx
            self._failed_mask = None
            self.dirty = True
        return idx

    @property
    def failed_mask(self) -> int:
        mask = self._failed_mask
        if mask is None:
            mask = 0
            for idx, failed in enumerate(self.labels):
                if failed:
                    mask |= 1 << idx
            self._failed_mask = mask
        return mask

    # -- the memoized evaluation loop ------------------------------------

    def log_for(self, suite: PredicateSuite, trace) -> PredicateLog:
        """Evaluate the suite on one in-memory trace, through the memo.

        The trace must carry a ``fingerprint`` (corpus-loaded traces do;
        for live traces compute one via
        :func:`repro.sim.serialize.trace_fingerprint` first).  A thin
        call into :meth:`log_for_entry`.
        """
        fp = getattr(trace, "fingerprint", None)
        if fp is None:
            raise ValueError(
                "trace has no fingerprint; corpus evaluation is memoized "
                "by content address"
            )
        return self.log_for_entry(
            suite,
            fp,
            trace.failed,
            trace.seed,
            trace.failure.signature if trace.failure is not None else None,
            load=lambda: trace,
        )

    def log_for_entry(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        failed: bool,
        seed: int,
        signature: Optional[str],
        load: Callable[[], object],
    ) -> PredicateLog:
        """Evaluate the suite on one trace given by its manifest facts.

        Pairs already decided are answered from the bitsets.  Only when
        some pid is undecided for the trace's column is ``load()``
        called for the trace body, and one single-pass kernel
        evaluation then covers every undecided pid — so a fully-decided
        trace is never read.  The log is assembled like
        :meth:`reconstruct_log`.
        """
        col = self.column(fingerprint, failed)
        mask = 1 << col
        suite_digests = self._digests_for(suite)
        undecided: list[str] = []
        for pid, digest in suite_digests.items():
            if self.digests.get(pid) != digest:
                # New predicate, or a same-pid predicate whose parameters
                # drifted: invalidate the whole row.
                self._drop_row(pid)
                self.digests[pid] = digest
                undecided.append(pid)
            elif not self.evaluated.get(pid, 0) & mask:
                undecided.append(pid)
        self.pair_hits += len(suite_digests) - len(undecided)
        if undecided:
            fresh = suite.kernel().observations(
                load(),
                only=(
                    None
                    if len(undecided) == len(suite_digests)
                    else frozenset(undecided)
                ),
            )
            self.pair_evaluations += len(undecided)
            self.kernel_calls += 1
            self.dirty = True
            row_obs = self.observations.get(fingerprint)
            for pid in undecided:
                self.evaluated[pid] = self.evaluated.get(pid, 0) | mask
                obs = fresh.get(pid)
                if obs is not None:
                    self.observed[pid] = self.observed.get(pid, 0) | mask
                    if row_obs is None:
                        row_obs = self.observations.setdefault(fingerprint, {})
                    row_obs[pid] = _obs_to_list(obs)
        return self._assemble_log(suite, fingerprint, mask, failed, seed, signature)

    def reconstruct_log(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        failed: bool,
        seed: int,
        signature: Optional[str],
    ) -> PredicateLog:
        """The log :meth:`log_for_entry` would return for a
        fully-decided trace, rebuilt from the bitsets without touching
        the trace or the hit/evaluation counters."""
        col = self._column.get(fingerprint)
        if col is None:
            raise ValueError(f"trace {fingerprint!r} has no matrix column")
        return self._assemble_log(
            suite, fingerprint, 1 << col, failed, seed, signature
        )

    def _assemble_log(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        mask: int,
        failed: bool,
        seed: int,
        signature: Optional[str],
    ) -> PredicateLog:
        """A decided column's log, observations in suite order."""
        row = self.observations.get(fingerprint, {})
        observed = self.observed
        return PredicateLog(
            observations={
                pid: _obs_from_list(row[pid])
                for pid in suite.defs
                if observed.get(pid, 0) & mask
            },
            failed=failed,
            seed=seed,
            failure_signature=signature,
        )

    def _drop_row(self, pid: str) -> None:
        self.evaluated.pop(pid, None)
        self.observed.pop(pid, None)
        self.digests.pop(pid, None)
        for row in self.observations.values():
            row.pop(pid, None)

    # -- compaction ------------------------------------------------------

    def compact(
        self,
        keep_fingerprints: Iterable[str],
        keep_digests: Mapping[str, str],
    ) -> tuple[int, int]:
        """Reclaim rows and columns the corpus no longer needs.

        Drops every row whose pid is absent from ``keep_digests`` or
        whose recorded definition digest differs (a predicate that
        drifted and is now shadowed by its re-evaluated successor), and
        every column whose fingerprint is not in ``keep_fingerprints``
        (a trace evicted from the manifest).  Returns
        ``(dropped_rows, dropped_columns)``.
        """
        dead_rows = [
            pid
            for pid in sorted(set(self.evaluated) | set(self.digests))
            if keep_digests.get(pid) != self.digests.get(pid)
        ]
        for pid in dead_rows:
            self._drop_row(pid)
        # Digest entries without a surviving row are dead weight too
        # (older per-bucket matrices each carried the full table).
        n_digests = len(self.digests)
        self.digests = {
            pid: digest
            for pid, digest in self.digests.items()
            if pid in self.evaluated
        }

        keep = set(keep_fingerprints)
        dead_cols = [fp for fp in self.traces if fp not in keep]
        if dead_cols:
            kept = [
                (fp, failed)
                for fp, failed in zip(self.traces, self.labels)
                if fp in keep
            ]
            remap = {
                self._column[fp]: new for new, (fp, _) in enumerate(kept)
            }
            for bitsets in (self.evaluated, self.observed):
                for pid, bits in list(bitsets.items()):
                    packed = 0
                    for old, new in remap.items():
                        if bits >> old & 1:
                            packed |= 1 << new
                    bitsets[pid] = packed
            self.traces = [fp for fp, _ in kept]
            self.labels = [failed for _, failed in kept]
            self._column = {fp: i for i, fp in enumerate(self.traces)}
            self._failed_mask = None
            for fp in dead_cols:
                self.observations.pop(fp, None)
        self.observations = {
            fp: row for fp, row in self.observations.items() if row
        }
        if dead_rows or dead_cols or len(self.digests) != n_digests:
            self.dirty = True
        return len(dead_rows), len(dead_cols)

    # -- bitset analytics ------------------------------------------------

    def counts(self, pid: str) -> tuple[int, int]:
        """(true_in_failed, true_in_success) for one pid, by popcount."""
        from ..core.evalkernel import popcount_split

        return popcount_split(self.observed.get(pid, 0), self.failed_mask)

    def sd_counters(
        self, suite: PredicateSuite, fingerprints: Sequence[str]
    ) -> IncrementalDebugger:
        """SD counters over a (distinct-fingerprint) column subset, by
        popcount — what an :class:`IncrementalDebugger` fed those
        traces' logs one by one would hold, derived straight from the
        bitsets.  Every fingerprint must already be fully decided for
        ``suite`` (i.e. have gone through :meth:`log_for`)."""
        from ..core.evalkernel import popcount_split

        mask = 0
        for fp in fingerprints:
            mask |= 1 << self._column[fp]
        fmask = self.failed_mask & mask
        n_failed = fmask.bit_count()
        counts: dict[str, list[int]] = {}
        observed = self.observed
        for pid in suite.defs:
            bits = observed.get(pid, 0) & mask
            if bits:
                in_failed, in_success = popcount_split(bits, fmask)
                counts[pid] = [in_failed, in_success]
        return IncrementalDebugger(
            n_failed=n_failed,
            n_success=len(fingerprints) - n_failed,
            counts=counts,
        )

    @property
    def n_pairs(self) -> int:
        """How many (predicate, trace) pairs are memoized."""
        return sum(bits.bit_count() for bits in self.evaluated.values())

    @property
    def n_pids(self) -> int:
        return len(self.evaluated)

    def coverage(self) -> float:
        """Fraction of the full matrix already decided."""
        total = len(self.traces) * len(self.evaluated)
        return self.n_pairs / total if total else 0.0

    # -- persistence -----------------------------------------------------

    def save(self, path: Optional[str | os.PathLike] = None) -> Path:
        path = Path(path) if path is not None else self.path
        if path is None:
            raise ValueError("EvalMatrix has no path to save to")
        payload = {
            "version": MATRIX_VERSION,
            "traces": self.traces,
            "labels": [1 if f else 0 for f in self.labels],
            "evaluated": {
                pid: format(bits, "x")
                for pid, bits in sorted(self.evaluated.items())
            },
            "observed": {
                pid: format(bits, "x")
                for pid, bits in sorted(self.observed.items())
            },
            "digests": dict(sorted(self.digests.items())),
            "observations": {
                fp: dict(sorted(row.items()))
                for fp, row in sorted(self.observations.items())
                if row
            },
        }
        _write_json(path, payload, indent=None)
        self.dirty = False
        return path

    def load(self, path: str | os.PathLike) -> None:
        payload = _read_json(Path(path))
        version = payload.get("version")
        if version != MATRIX_VERSION:
            raise CorpusError(
                f"unsupported eval-matrix version {version!r} in {path}"
            )
        self.traces = list(payload["traces"])
        self.labels = [bool(v) for v in payload["labels"]]
        self._column = {fp: i for i, fp in enumerate(self.traces)}
        self._failed_mask = None
        self.evaluated = {
            pid: int(bits, 16) for pid, bits in payload["evaluated"].items()
        }
        self.observed = {
            pid: int(bits, 16) for pid, bits in payload["observed"].items()
        }
        self.digests = dict(payload["digests"])
        self.observations = {
            fp: dict(row) for fp, row in payload["observations"].items()
        }
        self.dirty = False


@dataclass(frozen=True)
class CompactionStats:
    """What ``compact`` reclaimed."""

    dropped_rows: int
    dropped_columns: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


class ShardedEvalMatrix:
    """The corpus-wide evaluation memo: one :class:`EvalMatrix` stored
    at ``DIR/evalmatrix.json``, evaluated in the calling process.

    The name dates from when the store kept one matrix per
    fingerprint-prefix bucket; :meth:`evaluate_shards` and
    :meth:`evaluate_fingerprints` are the two batch entry points.
    """

    def __init__(self, store: "TraceStore") -> None:
        self.store = store
        self.matrix = EvalMatrix(store.matrix_path)

    # -- the memoized evaluation loop ------------------------------------

    def log_for(self, suite: PredicateSuite, trace) -> PredicateLog:
        """Evaluate the suite on one trace, through the memo."""
        return self.matrix.log_for(suite, trace)

    def evaluate_shards(
        self, suite: PredicateSuite, traces: Sequence
    ) -> IncrementalDebugger:
        """Evaluate the suite over in-memory traces (each carrying its
        ``fingerprint``) and return the SD counters over them.

        Per-trace logs are not returned: the matrix holds every
        observation, and :meth:`reconstruct_log` rebuilds any log from
        it for free."""
        for trace in traces:
            self.matrix.log_for(suite, trace)
        return self.matrix.sd_counters(
            suite, [trace.fingerprint for trace in traces]
        )

    def evaluate_fingerprints(
        self, suite: PredicateSuite, fingerprints: Sequence[str]
    ) -> IncrementalDebugger:
        """Like :meth:`evaluate_shards`, but for stored traces named by
        fingerprint.  The manifest supplies each trace's facts, and a
        trace body is loaded only when some pair of it is still
        undecided — so a fully-memoized (warm) analyze reads no trace
        bodies at all.  This is the path a pre-frozen suite takes (no
        discovery pass needs the traces in memory)."""
        store = self.store
        for fp in fingerprints:
            entry = store.entries[fp]
            self.matrix.log_for_entry(
                suite,
                fp,
                entry.failed,
                entry.seed,
                entry.signature,
                load=lambda fp=fp: store.load(fp),
            )
        return self.matrix.sd_counters(suite, fingerprints)

    def reconstruct_log(
        self,
        suite: PredicateSuite,
        fingerprint: str,
        failed: bool,
        seed: int,
        signature: Optional[str],
    ) -> PredicateLog:
        """Rebuild the :class:`PredicateLog` of a decided trace straight
        from the bitsets — no trace load, no evaluation, no counter
        churn.  Only valid once every (suite pid, trace) pair is decided
        (i.e. after the trace went through :meth:`log_for`)."""
        return self.matrix.reconstruct_log(
            suite, fingerprint, failed, seed, signature
        )

    # -- memo counters ---------------------------------------------------

    @property
    def pair_evaluations(self) -> int:
        """Fresh evaluations performed through this instance."""
        return self.matrix.pair_evaluations

    @property
    def pair_hits(self) -> int:
        """Memo hits answered through this instance."""
        return self.matrix.pair_hits

    @property
    def kernel_calls(self) -> int:
        """Single-pass kernel batches behind the fresh evaluations."""
        return self.matrix.kernel_calls

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Write the matrix if it changed since it was loaded.  A matrix
        whose every column was reclaimed loses its file — evicted traces
        must not resurrect."""
        if not self.matrix.traces:
            self.store.matrix_path.unlink(missing_ok=True)
        elif self.matrix.dirty:
            self.matrix.save()

    # -- compaction ------------------------------------------------------

    def compact(self, keep_digests: Mapping[str, str]) -> CompactionStats:
        """Reclaim shadowed rows and evicted columns.

        ``keep_digests`` maps each live pid to its current definition
        digest (from the frozen suite); live columns are the store's
        manifest entries.  The matrix file is rewritten in place;
        returns its byte size before and after.
        """
        path = self.store.matrix_path
        before = path.stat().st_size if path.exists() else 0
        rows, cols = self.matrix.compact(set(self.store.entries), keep_digests)
        self.save()
        return CompactionStats(
            dropped_rows=rows,
            dropped_columns=cols,
            bytes_before=before,
            bytes_after=path.stat().st_size if path.exists() else 0,
        )


def merge_matrices(matrices: Iterable[EvalMatrix]) -> EvalMatrix:
    """Fold matrices over disjoint traces into one (columns concatenated
    in the given order), keeping every memoized pair.

    A pid whose row was decided under different definition digests in
    different inputs (a bucket no analysis touched since its predicate
    drifted) is dropped, to be evaluated afresh rather than served
    stale."""
    merged = EvalMatrix()
    drifted: set[str] = set()
    for matrix in matrices:
        offset = {
            idx: merged.column(fp, failed)
            for idx, (fp, failed) in enumerate(zip(matrix.traces, matrix.labels))
        }
        for source in ("evaluated", "observed"):
            merged_bits = getattr(merged, source)
            for pid, bits in getattr(matrix, source).items():
                packed = merged_bits.get(pid, 0)
                for idx, col in offset.items():
                    if bits >> idx & 1:
                        packed |= 1 << col
                merged_bits[pid] = packed
        for pid in matrix.evaluated:
            digest = matrix.digests.get(pid)
            if merged.digests.setdefault(pid, digest) != digest:
                drifted.add(pid)
        for fp, row in matrix.observations.items():
            merged.observations[fp] = {
                pid: list(obs) for pid, obs in row.items()
            }
    for pid in drifted:
        merged._drop_row(pid)
    return merged
