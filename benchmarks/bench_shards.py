"""Shard-parallel analyze: 1-shard vs multi-shard wall time.

What the tentpole promises, measured: the same trace set is ingested
twice — once into a corpus with sharding disabled (``shard_width=0``,
one bucket, necessarily serial) and once into a 16-shard corpus
(``shard_width=1``) — and the cold-matrix offline analysis is timed on
both, the multi-shard one fanning shards out across a process (or
thread, where ``fork`` is unavailable) backend with 8 workers.

The timed region is the paper's steady state — the predicate suite is
frozen once (extractor discovery is global and runs up front, outside
the timer, identically for both layouts) and every analysis round then
loads, evaluates, and builds the AC-DAG from scratch against an empty
matrix.  With a pre-frozen suite loading and evaluation are per-shard
work: shard tasks load their *own* traces and evaluate them into their
own bitset matrix, so those steps parallelize and merge
deterministically; the AC-DAG is then one global build in the parent.

The result lands in ``BENCH_shards.json``::

    {
      "one_shard":   {"mean_seconds": ..., "best_seconds": ...},
      "multi_shard": {"mean_seconds": ..., "best_seconds": ...},
      "speedup": <one_shard best / multi_shard best>,
      "cpu_count": ...,
      ...
    }

The speedup is a genuine parallel-efficiency number: on an N-core
machine it approaches ``min(jobs, N)`` scaled by the per-round
fork/merge overhead (≥ 2x on 4+ cores at the default corpus size).
``cpu_count`` is recorded because on a single-core machine the honest
answer is ~1x — there the merged *result* being identical to the
serial reference (asserted every round) is the half of the claim that
can be checked.

Run:  PYTHONPATH=src python benchmarks/bench_shards.py
Env:  REPRO_FULL=1 for paper-scale trace counts,
      REPRO_BENCH_JOBS / REPRO_BENCH_ROUNDS / REPRO_BENCH_WORKLOAD
      to override defaults.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.core.extraction import PredicateSuite
from repro.corpus import IncrementalPipeline, TraceStore
from repro.exec import ExecutionEngine, make_backend
from repro.harness.runner import collect
from repro.workloads.common import REGISTRY

WORKLOAD = os.environ.get("REPRO_BENCH_WORKLOAD", "kafka")
N_PER_LABEL = 4096 if os.environ.get("REPRO_FULL") else 1536
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "8"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))


def _build_corpus(root: Path, program, traces, shard_width: int) -> TraceStore:
    store = TraceStore.init(root, program=program.name, shard_width=shard_width)
    for trace in traces:
        store.ingest(trace)
    store.save()
    return store


def _freeze_suite(root: Path, program) -> PredicateSuite:
    """One global discovery pass — identical for either shard layout
    (extractors see the same fingerprint-sorted trace walk)."""
    store = TraceStore.open(root)
    corpus = store.labeled_corpus()
    corpus = corpus.restrict_failures(corpus.dominant_failure_signature())
    return PredicateSuite.discover(
        corpus.successes, corpus.failures, program=program
    )


def _time_cold_analyze(
    root: Path, program, suite, engine
) -> tuple[list[float], dict]:
    """Cold-matrix bootstraps (never saved, so every round re-evaluates)."""
    timings = []
    state = {}
    for _ in range(ROUNDS):
        pipeline = IncrementalPipeline(
            TraceStore.open(root), program=program, suite=suite
        )
        started = time.perf_counter()
        pipeline.bootstrap(engine=engine)
        timings.append(time.perf_counter() - started)
        assert pipeline.matrix.pair_evaluations > 0, "analysis was not cold"
        state = {
            "fully_discriminative": list(pipeline.fully),
            "dag_nodes": sorted(pipeline.dag.structure()[0]),
            "dag_edges": sorted(pipeline.dag.structure()[1]),
            "pair_evaluations": pipeline.matrix.pair_evaluations,
        }
    return timings, state


def main() -> int:
    program = REGISTRY.build(WORKLOAD).program
    corpus = collect(program, n_success=N_PER_LABEL, n_fail=N_PER_LABEL)
    traces = corpus.successes + corpus.failures
    backend_name = (
        "process"
        if "fork" in multiprocessing.get_all_start_methods()
        else "thread"
    )

    workdir = Path(tempfile.mkdtemp(prefix="bench-shards-"))
    try:
        one_root = workdir / "one-shard"
        multi_root = workdir / "multi-shard"
        _build_corpus(one_root, program, traces, shard_width=0)
        multi = _build_corpus(multi_root, program, traces, shard_width=1)
        n_shards = len(multi.shard_ids)
        suite = _freeze_suite(one_root, program)

        one_timings, one_state = _time_cold_analyze(
            one_root, program, suite, None
        )

        engine = ExecutionEngine(backend=make_backend(backend_name, JOBS))
        try:
            multi_timings, multi_state = _time_cold_analyze(
                multi_root, program, suite, engine
            )
        finally:
            engine.close()

        # The correctness half of the tentpole: identical analysis state.
        assert one_state == multi_state, (
            "multi-shard analyze diverged from the single-shard reference"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def summary(timings: list[float]) -> dict:
        return {
            "rounds": len(timings),
            "mean_seconds": sum(timings) / len(timings),
            "best_seconds": min(timings),
        }

    one, multi_summary = summary(one_timings), summary(multi_timings)
    payload = {
        "workload": WORKLOAD,
        "traces": 2 * N_PER_LABEL,
        "suite_predicates": len(suite),
        "pair_evaluations": one_state["pair_evaluations"],
        "jobs": JOBS,
        "backend": backend_name,
        "cpu_count": os.cpu_count(),
        "shards": n_shards,
        "one_shard": one,
        "multi_shard": multi_summary,
        "speedup": one["best_seconds"] / multi_summary["best_seconds"],
        "results_identical": True,
    }
    out = Path("BENCH_shards.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))

    print(
        f"cold-matrix analyze (frozen suite of {len(suite)} predicates), "
        f"{2 * N_PER_LABEL} traces of {WORKLOAD!r}, "
        f"{one_state['pair_evaluations']} evaluations per round:"
    )
    print(
        f"  1 shard  (serial)           : "
        f"best {one['best_seconds']:.3f}s  mean {one['mean_seconds']:.3f}s"
    )
    print(
        f"  {n_shards} shards ({backend_name} x {JOBS} jobs): "
        f"best {multi_summary['best_seconds']:.3f}s  "
        f"mean {multi_summary['mean_seconds']:.3f}s"
    )
    print(
        f"  speedup {payload['speedup']:.2f}x on {payload['cpu_count']} "
        f"CPU(s); merged analysis state identical: True"
    )
    print(f"wrote {out.resolve()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
