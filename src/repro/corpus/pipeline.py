"""Incremental analysis over a trace corpus.

Role
----
This is the incremental-view-maintenance half of the corpus subsystem
(after Berkholz et al., *Answering FO+MOD queries under updates*): the
discriminative-predicate set and the AC-DAG are *views* over the stored
logs, and log insertion patches them instead of recomputing.

Lifecycle::

    pipeline = IncrementalPipeline(store, program=workload.program)
    pipeline.bootstrap(engine=...)  # freeze suite; evaluate; build views
    pipeline.ingest_batch(traces)   # store + patch counts, FD set, AC-DAG
    pipeline.ingest(new_trace)      # the same, as a one-trace batch
    pipeline.rebuild()              # the from-scratch fallback (tests assert
                                    # it equals the patched state)

``bootstrap`` is the only code that learns from stored traces: ``repro
corpus analyze`` runs it alone, and
:class:`~repro.corpus.session.CorpusSession` (``repro debug --corpus``)
runs it before its live interventions.

Bootstrap
---------
Discovery's *propose* half (per-trace summarization, see
:mod:`repro.core.evalkernel`) fans out across the optional
:class:`~repro.exec.engine.ExecutionEngine`; its merged summary, and so
the frozen suite, is identical for any job count.  Evaluation then runs
in this process through the one eval matrix
(:class:`~repro.corpus.matrix.ShardedEvalMatrix`), which returns the SD
counters by popcount.  The **AC-DAG** is one relation over all failed
logs (an edge is "precedes in *every* failed log"), built once over the
failed logs rebuilt from the matrix bitsets in canonical corpus order
(successes then failures, fingerprint-sorted).

Invariants
----------
* the predicate suite is frozen at bootstrap — extractors calibrate once
  over the then-current corpus (thresholds such as duration envelopes
  depend on the whole corpus);
* the analysis state after ``bootstrap(engine=N-jobs)`` is bit-identical
  to ``bootstrap()`` serial — tests assert report equality for 1 vs 8
  jobs;
* ingested logs are evaluated against the frozen suite (each pair at
  most once corpus-wide, via the eval matrix) and can only *shrink* the
  fully-discriminative set and the DAG, which is what makes pure
  patching sound.  Re-discovering predicates over a grown corpus is a
  new bootstrap.

Persistence: a bootstrap that discovers the suite with the default
extractors persists it (``suite.json``, keyed by corpus content);
``save`` writes the store manifest and the eval matrix when they
changed.  Nothing else is persisted — the DAG and counters rebuild from
the matrix for free on the next bootstrap.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from ..core.acdag import ACDag
from ..core.extraction import Extractor, PredicateSuite
from ..core.precedence import PrecedencePolicy, default_policy
from ..core.statistical import (
    IncrementalDebugger,
    PredicateLog,
    StatisticalDebugger,
)
from ..sim.program import Program
from .matrix import CompactionStats, ShardedEvalMatrix
from .store import CorpusError, TraceStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.events import Event, EventBus
    from ..exec.engine import ExecutionEngine


@dataclass
class IngestResult:
    """What one ingestion did to the corpus and its maintained views."""

    fingerprint: str
    added: bool
    failed: bool
    #: trace stored but excluded from analysis (off-signature failure)
    skipped: bool = False
    #: pids that left the fully-discriminative set / the DAG
    removed_pids: frozenset[str] = frozenset()


@dataclass
class BatchIngestResult:
    """What one batched ingestion did: per-trace outcomes (submission
    order) plus the aggregate view damage.

    Per-trace ``removed_pids`` attribution is finer in sequential
    ingestion (each trace sees the views exactly as it found them);
    a batch defers the fully-set diff and the final DAG restriction to
    the end, so cross-trace casualties surface only in the aggregate
    ``removed_pids`` here (a one-trace batch attributes them all to its
    trace).  The *final* maintained state is identical either way
    (asserted in tests).
    """

    results: list[IngestResult]
    #: union of every pid that left the FD set / the DAG in this batch
    removed_pids: frozenset[str] = frozenset()

    @property
    def n_added(self) -> int:
        return sum(1 for r in self.results if r.added)


class IncrementalPipeline:
    """Maintains suite evaluation, SD counts, and the AC-DAG over a store."""

    def __init__(
        self,
        store: TraceStore,
        program: Optional[Program] = None,
        matrix: Optional[ShardedEvalMatrix] = None,
        extractors: Optional[Sequence[Extractor]] = None,
        policy: Optional[PrecedencePolicy] = None,
        suite: Optional[PredicateSuite] = None,
        bus: Optional["EventBus"] = None,
    ) -> None:
        self.store = store
        self.program = program
        self.matrix = matrix if matrix is not None else store.eval_matrix()
        self.extractors = extractors
        self.policy = policy or default_policy()
        #: observer seam (see :mod:`repro.api.events`); never affects
        #: results
        self.bus = bus
        # frozen at bootstrap (or injected pre-frozen: extractor
        # discovery is skipped and evaluation loads only the traces it
        # needs,
        # the steady-state freeze-once / re-analyze-many regime).  Only
        # an *injected* suite survives re-bootstrap: a suite frozen by a
        # previous bootstrap() is re-discovered, because its envelopes
        # and baselines were calibrated on the then-current corpus.
        self._injected_suite: Optional[PredicateSuite] = suite
        self.suite: Optional[PredicateSuite] = suite
        self.failure_pid: Optional[str] = None
        self.signature: Optional[str] = None
        self.debugger = IncrementalDebugger()
        self.fully: list[str] = []
        self.dag: Optional[ACDag] = None
        self._bootstrapped = False
        self._logs: Optional[list[PredicateLog]] = []
        self._log_fps: list[str] = []

    @property
    def bootstrapped(self) -> bool:
        return self._bootstrapped

    def _emit(self, event: "Event") -> None:
        if self.bus is not None:
            self.bus.emit(event)

    def _span(self, name: str):
        """A timed phase span on the pipeline's bus (no-op without one)."""
        if self.bus is not None:
            return self.bus.span(name)
        return nullcontext()

    @property
    def logs(self) -> list[PredicateLog]:
        """The analysis logs, in canonical corpus order.

        Evaluation returns no logs (the matrix already holds every
        observation); the list materializes from the bitsets on first
        access and is then owned by the pipeline (``ingest`` appends to
        it).
        """
        if self._logs is None:
            entries = self.store.entries
            self._logs = [
                self.matrix.reconstruct_log(
                    self.suite,
                    fp,
                    failed=entries[fp].failed,
                    seed=entries[fp].seed,
                    signature=entries[fp].signature,
                )
                for fp in self._log_fps
            ]
        return self._logs

    # -- bootstrap -------------------------------------------------------

    def bootstrap(self, engine: Optional["ExecutionEngine"] = None) -> None:
        """Freeze the predicate suite over the current corpus and build
        every maintained view.

        All evaluation goes through the eval matrix, so a warm restart
        performs zero fresh evaluations; an ``engine`` parallelizes
        discovery's propose phase (identical state for any job count).
        The AC-DAG is then built once, over every on-signature failed
        log.
        """
        from ..api.events import (
            CollectionFinished,
            CorpusLoaded,
            LogsEvaluated,
            SuiteFrozen,
        )

        if not any(e.failed for e in self.store.entries.values()):
            raise CorpusError("corpus has no failed traces to analyze")
        if all(e.failed for e in self.store.entries.values()):
            raise CorpusError("corpus has no successful traces to analyze")
        self._emit(
            CorpusLoaded(
                n_traces=len(self.store),
                n_pass=self.store.n_pass,
                n_fail=self.store.n_fail,
            )
        )
        self.signature = self.store.dominant_failure_signature()
        # The canonical analysis order, from the manifest alone:
        # successes then on-signature failures, each fingerprint-sorted
        # (what a labeled_corpus walk yields).
        ordered = sorted(self.store.entries.items())
        successes = [fp for fp, e in ordered if not e.failed]
        failures = [
            fp
            for fp, e in ordered
            if e.failed and e.signature == self.signature
        ]
        fingerprints = successes + failures
        self._emit(
            CollectionFinished(
                n_success=len(successes),
                n_fail=len(failures),
                signature=self.signature,
            )
        )
        self.suite = self._injected_suite
        suite_source = "injected" if self.suite is not None else "discovered"
        if self.suite is None and self.extractors is None:
            # Warm restart: a suite frozen over *exactly this corpus
            # content* (same digest, same attached program) is as good
            # as rediscovery — extractor calibration saw the same
            # traces — so the whole discovery pass is skipped.
            persisted = self.store.load_suite(
                program=self.program.name if self.program else None
            )
            if persisted is not None:
                self.suite = persisted
                suite_source = "persisted"
        corpus = None
        if self.suite is None:
            # Discovery calibration is global by construction (duration
            # envelopes and order baselines span the whole corpus), so
            # the parent loads every trace — but the propose phase
            # (per-trace summarization) fans out across the engine's
            # backend, and the serial calibrate over the merged summary
            # freezes a byte-identical suite for any job count.
            corpus = self.store.labeled_corpus().restrict_failures(
                self.signature
            )
            with self._span("discovery"):
                self.suite = PredicateSuite.discover(
                    corpus.successes,
                    corpus.failures,
                    extractors=self.extractors,
                    program=self.program,
                    engine=engine,
                )
            if self.extractors is None:
                # Memoize the freeze for the next analyze over this
                # exact content (custom extractor stacks are not
                # serializable, so only the default catalogue persists).
                self.store.save_suite(
                    self.suite,
                    signature=self.signature,
                    program=self.program.name if self.program else None,
                )
        self._emit(
            SuiteFrozen(n_predicates=len(self.suite), source=suite_source)
        )
        with self._span("evaluate"):
            if corpus is not None:
                # Discovery already loaded every body: evaluate those.
                counters = self.matrix.evaluate_shards(
                    self.suite, corpus.successes + corpus.failures
                )
            else:
                # Pre-frozen suite: nothing needs the trace bodies, so
                # only those with an undecided pair are loaded, and a
                # warm analyze reads none.
                counters = self.matrix.evaluate_fingerprints(
                    self.suite, fingerprints
                )
        # The canonical-order log list (successes then failures,
        # fingerprint-sorted) materializes lazily from the bitsets.
        self._log_fps = fingerprints
        self._logs = None
        self._emit(
            LogsEvaluated(
                n_logs=len(fingerprints),
                fresh=self.matrix.pair_evaluations,
                memoized=self.matrix.pair_hits,
                kernel_calls=self.matrix.kernel_calls,
            )
        )
        with self._span("dag-build"):
            self.debugger = counters
            failure_pids = [
                pid
                for pid in self.suite.failure_pids()
                if self.debugger.counts.get(pid, (0, 0))[0]
            ]
            if not failure_pids:
                raise CorpusError("no failure predicate was extracted")
            self.failure_pid = failure_pids[0]
            self.fully = self._derive_fully()
            self.dag = ACDag.build(
                defs=dict(self.suite.defs),
                failed_logs=[log for log in self.logs if log.failed],
                failure=self.failure_pid,
                policy=self.policy,
                candidate_pids=self.fully,
            )
        self._bootstrapped = True
        from ..api.events import DagBuilt

        self._emit(
            DagBuilt(
                n_nodes=len(self.dag),
                n_edges=len(self.dag.structure()[1]),
            )
        )

    def _derive_fully(self) -> list[str]:
        failure_pids = set(self.suite.failure_pids())
        return [
            pid
            for pid in self.debugger.fully_discriminative_pids()
            if pid not in failure_pids
        ]

    # -- ingestion -------------------------------------------------------

    def ingest(
        self, trace, schedule_signature: Optional[str] = None
    ) -> IngestResult:
        """Store one new trace and patch every maintained view — a
        one-trace :meth:`ingest_batch` whose result carries the batch's
        ``removed_pids``.

        Duplicates (same content fingerprint) change nothing.  Failed
        traces with a different failure signature are stored but excluded
        from this pipeline's views, exactly as
        :meth:`~repro.harness.runner.LabeledCorpus.restrict_failures`
        excludes them from a batch session.  ``schedule_signature``
        stamps interleaving provenance into the manifest row (see
        :meth:`~repro.corpus.store.TraceStore.ingest`).
        """
        return self.ingest_batch([trace], [schedule_signature]).results[0]

    # -- batched ingestion -----------------------------------------------

    def ingest_batch(
        self,
        traces: Sequence,
        schedule_signatures: Optional[Sequence[Optional[str]]] = None,
        save: bool = False,
    ) -> BatchIngestResult:
        """Ingest one wave of traces with a single view update.

        Every trace is stored, deduplicated by content fingerprint, and
        dropped from the views if it is a failure with another
        signature.  The maintained views are then patched once for the
        whole batch: all logs join the SD counters
        first, the fully-discriminative set is re-derived once, each
        failed log patches the AC-DAG in submission order, and one final
        restriction drops whatever left the FD set.  With ``save=True``
        the store manifest and the eval matrix are saved once for the
        whole wave, not once per trace.

        The final pipeline state is byte-identical to calling
        :meth:`ingest` per trace in the same order (asserted in tests);
        only per-trace ``removed_pids`` attribution is coarser — see
        :class:`BatchIngestResult`.
        """
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before ingesting")
        traces = list(traces)
        if schedule_signatures is None:
            schedule_signatures = [None] * len(traces)
        else:
            schedule_signatures = list(schedule_signatures)
            if len(schedule_signatures) != len(traces):
                raise ValueError(
                    f"{len(traces)} traces but "
                    f"{len(schedule_signatures)} schedule signatures"
                )
        with self._span("ingest-batch"):
            batch = self._ingest_batch(traces, schedule_signatures)
        if save:
            self.save()
        return batch

    def _ingest_batch(
        self, traces: Sequence, schedule_signatures: Sequence[Optional[str]]
    ) -> BatchIngestResult:
        results: list[Optional[IngestResult]] = [None] * len(traces)
        analyzable: list[tuple[int, str, object, bool]] = []
        for slot, (trace, sched_sig) in enumerate(
            zip(traces, schedule_signatures)
        ):
            fp, added = self.store.ingest(
                trace, schedule_signature=sched_sig
            )
            failed = trace.failed
            if not added:
                results[slot] = IngestResult(
                    fingerprint=fp, added=False, failed=failed
                )
                continue
            signature = (
                trace.failure.signature
                if trace.failure is not None
                else None
            )
            if failed and signature != self.signature:
                results[slot] = IngestResult(
                    fingerprint=fp, added=True, failed=True, skipped=True
                )
                continue
            if getattr(trace, "fingerprint", None) is None:
                trace = self.store.load(fp)
            analyzable.append((slot, fp, trace, failed))
        if not analyzable:
            return BatchIngestResult(
                results=results  # type: ignore[arg-type]
            )

        # One counter update for the whole wave...
        batch_logs: list[PredicateLog] = []
        for slot, fp, trace, failed in analyzable:
            log = self.matrix.log_for(self.suite, trace)
            self.logs.append(log)
            self.debugger.add(log)
            batch_logs.append(log)
        # ...one FD-set derivation...
        new_fully = self._derive_fully()
        removed = set(self.fully) - set(new_fully)
        self.fully = new_fully
        # ...each failed log patches the DAG in submission order...
        per_slot: dict[int, frozenset[str]] = {}
        for (slot, fp, trace, failed), log in zip(analyzable, batch_logs):
            if failed:
                dropped = self.dag.update_failed_log(log, policy=self.policy)
                per_slot[slot] = frozenset(dropped)
                removed |= dropped
        # ...and one restriction to the batch-final FD set.
        removed |= self.dag.restrict_to(set(new_fully) | {self.failure_pid})
        if len(analyzable) == 1:
            # A lone trace owns every casualty of its batch.
            per_slot[analyzable[0][0]] = frozenset(removed)
        for slot, fp, trace, failed in analyzable:
            results[slot] = IngestResult(
                fingerprint=fp,
                added=True,
                failed=failed,
                removed_pids=per_slot.get(slot, frozenset()),
            )
        if self.bus is not None:
            from ..api.events import DagPatched

            for slot, fp, trace, failed in analyzable:
                self._emit(
                    DagPatched(
                        fingerprint=fp,
                        removed_pids=per_slot.get(slot, frozenset()),
                    )
                )
        return BatchIngestResult(
            results=results,  # type: ignore[arg-type]
            removed_pids=frozenset(removed),
        )

    # -- the from-scratch fallback --------------------------------------

    def rebuild(self) -> ACDag:
        """Recompute the AC-DAG from the full log history with the frozen
        suite — the ground truth the incremental patching must equal."""
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before rebuilding")
        batch = StatisticalDebugger(logs=list(self.logs))
        failure_pids = set(self.suite.failure_pids())
        fully = [
            pid
            for pid in batch.fully_discriminative_pids()
            if pid not in failure_pids
        ]
        return ACDag.build(
            defs=dict(self.suite.defs),
            failed_logs=[log for log in self.logs if log.failed],
            failure=self.failure_pid,
            policy=self.policy,
            candidate_pids=fully,
        )

    # -- compaction ------------------------------------------------------

    def compact(self) -> CompactionStats:
        """Reclaim matrix rows shadowed by predicate drift and columns of
        evicted traces (the bootstrapped suite defines what is live)."""
        if not self.bootstrapped:
            raise CorpusError("bootstrap() the pipeline before compacting")
        keep_digests = {
            pid: pred.definition_digest()
            for pid, pred in self.suite.defs.items()
        }
        return self.matrix.compact(keep_digests)

    # -- persistence -----------------------------------------------------

    def save(self) -> None:
        """Persist the store manifest and the eval matrix."""
        self.store.save()
        self.matrix.save()
