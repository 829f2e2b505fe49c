"""Corpus-backed debugging sessions.

Role
----
:class:`CorpusSession` is an :class:`~repro.harness.session.AIDSession`
whose learning phase reads from a :class:`~repro.corpus.store.TraceStore`
instead of re-running the workload.  That phase is one
:meth:`IncrementalPipeline.bootstrap
<repro.corpus.pipeline.IncrementalPipeline.bootstrap>` — the same code
``repro corpus analyze`` runs — which hands the session its suite, SD
counters, fully-discriminative set, failure predicate, signature and
AC-DAG.  The intervention phase is unchanged — interventions are
re-executions and need the live program.

Invariants
----------
* a warm corpus re-evaluates **zero** already-seen (predicate, trace)
  pairs, reuses the persisted predicate suite, and reads no trace
  bodies: failing seeds and log counts come from the manifest;
* when the session's :class:`~repro.harness.session.SessionConfig`
  carries an execution engine with more than one job, discovery's
  propose phase fans out across that engine's backend, with results
  identical to the serial walk;
* intervention outcomes are memoized under a corpus-content key, so two
  sessions over the same stored traces share outcomes no matter how
  the corpus was assembled.

Persistence: ``save`` writes the store manifest and the eval matrix
when they changed; the bootstrap itself persists a freshly discovered
suite.
"""

from __future__ import annotations

from typing import Optional

from ..core.statistical import IncrementalDebugger
from ..harness.session import AIDSession, SessionConfig
from ..sim.program import Program
from .matrix import ShardedEvalMatrix
from .pipeline import IncrementalPipeline
from .store import CorpusError, TraceStore


class CorpusSession(AIDSession):
    """A full debugging session whose corpus lives on disk."""

    def __init__(
        self,
        program: Program,
        store: TraceStore,
        config: Optional[SessionConfig] = None,
        matrix: Optional[ShardedEvalMatrix] = None,
    ) -> None:
        if store.program is not None and store.program != program.name:
            raise CorpusError(
                f"corpus holds traces of {store.program!r}, "
                f"not {program.name!r}"
            )
        super().__init__(program, config=config)
        self.store = store
        self.pipeline = IncrementalPipeline(
            store,
            program=program,
            matrix=matrix,
            extractors=self.config.extractors,
            policy=self.config.policy,
            bus=self.config.bus,
        )
        self.matrix = self.pipeline.matrix

    def collect(self):
        """A corpus session has no collection stage: its traces are the
        store's, learned from by :meth:`analyze`.  Refuses rather than
        running a live simulator sweep unrelated to the store."""
        raise CorpusError(
            "a corpus session collects nothing: ingest traces into the "
            "store, then call analyze()"
        )

    def analyze(self) -> IncrementalDebugger:
        """Stages 1-4 from the store: one pipeline bootstrap (the live
        :meth:`collect` never runs)."""
        if self._debugger is None:
            pipeline = self.pipeline
            pipeline.bootstrap(engine=self.config.engine)
            self._suite = pipeline.suite
            self._signature = pipeline.signature
            self._failure_pid = pipeline.failure_pid
            self._fully = pipeline.fully
            self._dag = pipeline.dag
            # Logs rebuilt from the matrix carry their manifest seeds.
            self._failing_seeds = [
                log.seed for log in pipeline.logs if log.failed
            ]
            self._debugger = pipeline.debugger
        return self._debugger

    def _workload_key(self) -> str:
        """Outcome-cache namespace for corpus-backed runs.

        Uses the corpus contents (sorted fingerprints) rather than
        collection quotas: two sessions over the same stored traces share
        memoized intervention outcomes no matter how the corpus was
        assembled.
        """
        key = (
            f"{self.program.name}#corpus-{self.store.content_digest}"
            f"@{self.config.max_steps}"
        )
        if self.config.extractors is not None:
            names = ",".join(
                sorted(type(e).__name__ for e in self.config.extractors)
            )
            key += f"!x[{names}]"
        return key

    def save(self) -> None:
        """Persist the store manifest and the eval matrix."""
        self.pipeline.save()
