"""``repro.corpus`` — the persistent trace-corpus subsystem.

Turns the paper's collect-once / analyze-many offline phase (Appendix A)
into a durable service:

* :mod:`~repro.corpus.store` — a content-addressed, deduplicating
  on-disk :class:`TraceStore`: one manifest, one ``traces/`` directory,
  and transparent in-place migration from older layouts;
* :mod:`~repro.corpus.matrix` — the :class:`EvalMatrix` (one bitset
  file) behind a :class:`ShardedEvalMatrix`, a predicates × traces memo
  guaranteeing each pair is evaluated at most once corpus-wide, with
  compaction (a fully-memoized trace is answered without reading its
  body);
* :mod:`~repro.corpus.pipeline` — the :class:`IncrementalPipeline`
  maintaining SD counts, the fully-discriminative set, and the AC-DAG
  under log insertions (and a :meth:`~IncrementalPipeline.rebuild`
  fallback the maintained state is asserted equal to);
* :mod:`~repro.corpus.session` — :class:`CorpusSession`, an AID session
  that learns through the pipeline's ``bootstrap`` instead of
  re-running the workload, then intervenes live.

CLI: ``repro corpus init|ingest|stats|analyze|compact`` and
``repro debug <workload> --corpus DIR``; ``analyze --jobs N``
parallelizes discovery's propose phase.  See ``docs/corpus.md`` for the
workflow and the on-disk format spec.
"""

from .matrix import (
    CompactionStats,
    EvalMatrix,
    ShardedEvalMatrix,
    merge_matrices,
)
from .pipeline import BatchIngestResult, IncrementalPipeline, IngestResult
from .session import CorpusSession
from .store import CorpusError, TraceEntry, TraceStore

__all__ = [
    "CompactionStats",
    "CorpusError",
    "CorpusSession",
    "EvalMatrix",
    "IncrementalPipeline",
    "BatchIngestResult",
    "IngestResult",
    "ShardedEvalMatrix",
    "TraceEntry",
    "TraceStore",
    "merge_matrices",
]
