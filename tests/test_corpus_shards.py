"""The corpus layout (one manifest, one ``traces/`` directory, one eval
matrix), migration from the flat v1 layout, ``--jobs`` determinism of
analyze (one global AC-DAG build per bootstrap), AC-DAG merging, and
compaction.  Older sharded stores are covered here for every bucket
width, and with memoized pairs by ``test_corpus_migration.py``."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import CorpusSpec, EngineSpec, RunSpec, run
from repro.api.events import EventBus, SuiteFrozen
from repro.cli import main
from repro.core.acdag import ACDag, GraphInvariantError
from repro.core.extraction import PredicateSuite
from repro.core.predicates import ExecutedPredicate, FailurePredicate, Observation
from repro.core.statistical import PredicateLog
from repro.corpus import (
    CorpusError,
    EvalMatrix,
    IncrementalPipeline,
    TraceStore,
)
from repro.exec import ExecutionEngine, make_backend
from repro.harness.runner import collect
from repro.sim.tracing import MethodKey


@pytest.fixture(scope="module")
def corpus(racy_program):
    return collect(racy_program, n_success=12, n_fail=12)


def _build_store(root, racy_program, corpus) -> TraceStore:
    store = TraceStore.init(root, program=racy_program.name)
    for trace in corpus.successes + corpus.failures:
        store.ingest(trace)
    store.save()
    return store


def _downgrade_to_v1(root: Path, v1_root: Path) -> None:
    """Write the v1 (flat) layout equivalent of a corpus — manifest,
    trace bodies, and the single-file eval matrix."""
    store = TraceStore.open(root)
    (v1_root / "traces").mkdir(parents=True)
    rows = {}
    for fp, entry in sorted(store.entries.items()):
        rows[fp] = {
            "label": entry.label,
            "seed": entry.seed,
            "signature": entry.signature,
        }
        shutil.copy(store.trace_path(fp), v1_root / "traces" / f"{fp}.json")
    (v1_root / "manifest.json").write_text(
        json.dumps(
            {"version": 1, "program": store.program, "traces": rows},
            indent=2,
            sort_keys=True,
        )
    )
    if store.matrix_path.exists():
        shutil.copy(store.matrix_path, v1_root / "evalmatrix.json")


class TestShardLayout:
    def test_one_manifest_one_traces_dir_one_matrix(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        pipeline.save()
        root = tmp_path / "c"
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["version"] == 4
        assert sorted(manifest["traces"]) == sorted(store.entries)
        assert sorted(p.stem for p in (root / "traces").iterdir()) == sorted(
            store.entries
        )
        assert sorted(p.name for p in root.iterdir()) == [
            "evalmatrix.json", "manifest.json", "suite.json", "traces",
        ]
        assert EvalMatrix(root / "evalmatrix.json").traces

    def test_evict_removes_entry_and_body(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        fp = sorted(store.entries)[0]
        path = store.trace_path(fp)
        assert store.evict(fp)
        assert fp not in store.entries
        assert not path.exists()
        assert not store.evict(fp)
        store.save()
        assert fp not in TraceStore.open(tmp_path / "c").entries


class TestMigration:
    def test_v1_opens_as_current_version_in_place(
        self, tmp_path, racy_program, corpus
    ):
        reference = _build_store(tmp_path / "ref", racy_program, corpus)
        ref_pipeline = IncrementalPipeline(reference, program=racy_program)
        ref_pipeline.bootstrap()
        ref_pipeline.save()

        v1 = tmp_path / "v1"
        _downgrade_to_v1(tmp_path / "ref", v1)
        migrated = TraceStore.open(v1)

        manifest = json.loads((v1 / "manifest.json").read_text())
        assert manifest["version"] == 4
        assert sorted(manifest["traces"]) == sorted(reference.entries)
        assert set(migrated.entries) == set(reference.entries)
        for fp in migrated.entries:
            assert migrated.load(fp).fingerprint == fp
        # and it stays open-able (idempotent end state)
        again = TraceStore.open(v1)
        assert set(again.entries) == set(migrated.entries)

    def test_migrated_analyze_is_warm_and_identical(
        self, tmp_path, racy_program, corpus
    ):
        reference = _build_store(tmp_path / "ref", racy_program, corpus)
        ref_pipeline = IncrementalPipeline(reference, program=racy_program)
        ref_pipeline.bootstrap()
        ref_pipeline.save()

        v1 = tmp_path / "v1"
        _downgrade_to_v1(tmp_path / "ref", v1)
        pipeline = IncrementalPipeline(
            TraceStore.open(v1), program=racy_program
        )
        pipeline.bootstrap()
        # every memoized pair survived: zero re-evaluations
        assert pipeline.matrix.pair_evaluations == 0
        assert pipeline.matrix.pair_hits > 0
        assert pipeline.fully == ref_pipeline.fully
        assert pipeline.dag.structure() == ref_pipeline.dag.structure()
        for mine, theirs in zip(pipeline.logs, ref_pipeline.logs):
            assert dict(mine.observations) == dict(theirs.observations)
            assert mine.failed == theirs.failed

    def test_unsupported_version_still_rejected(self, tmp_path):
        root = tmp_path / "c"
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps({"version": 99}))
        with pytest.raises(CorpusError, match="unsupported corpus version"):
            TraceStore.open(root)


_LAYOUTS = [
    pytest.param(
        width, jobs, id=f"width{width}-{'serial' if jobs == 1 else 'thread2'}"
    )
    for width in (0, 1, 2)
    for jobs in (1, 2)
]


def _build_v3_store(root, racy_program, corpus, width) -> None:
    """The same traces as an unanalyzed version-3 store whose buckets
    are ``width`` fingerprint characters (``all`` for width 0)."""
    _build_store(root, racy_program, corpus)
    rows = json.loads((root / "manifest.json").read_text())["traces"]
    buckets: dict[str, dict] = {}
    for fp, row in rows.items():
        sid = fp[:width] if width else "all"
        buckets.setdefault(sid, {})[fp] = row
        traces = root / "shards" / sid / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (root / "traces" / f"{fp}.json").rename(traces / f"{fp}.json")
    (root / "traces").rmdir()
    for sid, bucket_rows in buckets.items():
        (root / "shards" / sid / "manifest.json").write_text(
            json.dumps({"traces": bucket_rows})
        )
    (root / "manifest.json").write_text(
        json.dumps(
            {
                "version": 3,
                "program": racy_program.name,
                "shard_width": width,
                "shards": sorted(buckets),
            }
        )
    )


def _incremental_report(root: Path, jobs: int) -> str:
    """The analyze-only report over a corpus, as canonical JSON."""
    spec = RunSpec(
        corpus=CorpusSpec(dir=str(root), mode="incremental"),
        engine=EngineSpec(
            jobs=jobs, backend="thread" if jobs > 1 else None
        ),
    )
    return json.dumps(run(spec).to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def reference_report(tmp_path_factory, racy_program, corpus) -> str:
    """The serial report every layout and job count must reproduce."""
    root = tmp_path_factory.mktemp("reference") / "c"
    _build_store(root, racy_program, corpus)
    return _incremental_report(root, 1)


class TestShardParallelDeterminism:
    def test_cli_jobs_1_equals_jobs_8(self, tmp_path, capsys):
        # Two identical corpora so both runs are cold; the printed
        # report (including evaluation counts) must match byte for byte.
        outs = []
        for name, jobs in (("a", None), ("b", "8")):
            corpus_dir = str(tmp_path / name)
            assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
            assert main(["corpus", "ingest", corpus_dir, "--runs", "6"]) == 0
            capsys.readouterr()
            argv = ["corpus", "analyze", corpus_dir]
            if jobs:
                argv += ["--jobs", jobs]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_cli_output_is_identical_for_any_jobs_and_backend(
        self, tmp_path, capsys
    ):
        outs = {}
        for name, flags in (
            ("jobs1", ["--jobs", "1"]),
            ("thread2", ["--jobs", "2"]),
            ("process2", ["--jobs", "2", "--backend", "process"]),
        ):
            corpus_dir = str(tmp_path / name)
            assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
            assert main(["corpus", "ingest", corpus_dir, "--runs", "4"]) == 0
            capsys.readouterr()
            assert main(["corpus", "analyze", corpus_dir, *flags]) == 0
            outs[name] = capsys.readouterr().out
        assert outs["jobs1"] == outs["thread2"] == outs["process2"]

    def test_engine_bootstrap_matches_serial(
        self, tmp_path, racy_program, corpus
    ):
        serial_store = _build_store(tmp_path / "s", racy_program, corpus)
        serial = IncrementalPipeline(serial_store, program=racy_program)
        serial.bootstrap()

        engine = ExecutionEngine(backend=make_backend("thread", 8))
        try:
            parallel = IncrementalPipeline(
                _build_store(tmp_path / "p", racy_program, corpus),
                program=racy_program,
            )
            parallel.bootstrap(engine=engine)
        finally:
            engine.close()

        assert parallel.fully == serial.fully
        assert parallel.failure_pid == serial.failure_pid
        assert parallel.dag.structure() == serial.dag.structure()
        assert parallel.debugger.counts == serial.debugger.counts
        assert parallel.dag.n_failed_logs == serial.dag.n_failed_logs
        for a, b in zip(parallel.logs, serial.logs):
            assert dict(a.observations) == dict(b.observations)
            assert (a.failed, a.seed) == (b.failed, b.seed)

    def test_prefrozen_suite_skips_discovery_and_matches(
        self, tmp_path, racy_program, corpus
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        reference = IncrementalPipeline(store, program=racy_program)
        reference.bootstrap()

        engine = ExecutionEngine(backend=make_backend("thread", 4))
        try:
            warm = IncrementalPipeline(
                _build_store(tmp_path / "w", racy_program, corpus),
                program=racy_program,
                suite=reference.suite,
            )
            warm.bootstrap(engine=engine)
        finally:
            engine.close()
        assert warm.fully == reference.fully
        assert warm.dag.structure() == reference.dag.structure()
        for a, b in zip(warm.logs, reference.logs):
            assert dict(a.observations) == dict(b.observations)
            assert (a.failed, a.seed) == (b.failed, b.seed)

    @pytest.mark.parametrize("width, jobs", _LAYOUTS)
    def test_merged_dag_equals_rebuild(
        self, tmp_path, racy_program, corpus, reference_report, width, jobs
    ):
        # A v3 store of any bucket width migrates on open, and its
        # buckets merge into one analysis.
        _build_v3_store(tmp_path / "c", racy_program, corpus, width)
        store = TraceStore.open(tmp_path / "c")
        assert not (tmp_path / "c" / "shards").exists()
        engine = (
            ExecutionEngine(backend=make_backend("thread", jobs))
            if jobs > 1
            else None
        )
        try:
            pipeline = IncrementalPipeline(store, program=racy_program)
            pipeline.bootstrap(engine=engine)
        finally:
            if engine is not None:
                engine.close()
        assert pipeline.dag.structure() == pipeline.rebuild().structure()

        report_root = tmp_path / "r"
        _build_v3_store(report_root, racy_program, corpus, width)
        assert _incremental_report(report_root, jobs) == reference_report

    @pytest.mark.parametrize("suite_source", ("discovered", "persisted"))
    def test_one_dag_build_per_bootstrap_under_dag_build(
        self, tmp_path, racy_program, corpus, monkeypatch, suite_source
    ):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        if suite_source == "persisted":
            # a cold analyze persists the suite the warm one reuses
            IncrementalPipeline(store, program=racy_program).bootstrap()
        frozen: list[SuiteFrozen] = []
        bus = EventBus([frozen.append])
        spans: list[str] = []
        build = ACDag.build.__func__

        def counting_build(cls, *args, **kwargs):
            spans.append(bus._span_stack[-1])
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ACDag, "build", classmethod(counting_build))
        pipeline = IncrementalPipeline(store, program=racy_program, bus=bus)
        pipeline.bootstrap()
        assert [e.source for e in frozen if isinstance(e, SuiteFrozen)] == [
            suite_source
        ]
        assert spans == ["dag-build"]


def _obs(t: int) -> Observation:
    return Observation(start=t, end=t)


class TestACDagMerge:
    """Handcrafted partial DAGs: the merge is the intersection."""

    F = "FAILURE[f]"

    def _defs(self):
        defs = {
            pid: ExecutedPredicate(key=MethodKey(pid, "t", 0))
            for pid in ("A", "B", "C")
        }
        fail = FailurePredicate(signature="f")
        defs = {d.pid: d for d in defs.values()}
        defs[fail.pid] = fail
        return defs

    def _pid(self, name: str) -> str:
        return self.F if name == "F" else f"exec[t:{name}#0]"

    def _log(self, times: dict[str, int]) -> PredicateLog:
        return PredicateLog(
            observations={self._pid(n): _obs(t) for n, t in times.items()},
            failed=True,
        )

    def test_merge_equals_global_build(self):
        logs_a = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})] * 2
        # B drifts after C in the second slice: the B->C edge must die
        # in the merged DAG even though slice A supports it.
        logs_b = [self._log({"A": 1, "B": 5, "C": 3, "F": 6})]
        build = lambda logs: ACDag.build(
            defs=self._defs(), failed_logs=logs, failure=self.F
        )
        merged = ACDag.merge([build(logs_a), build(logs_b)])
        rebuilt = build(logs_a + logs_b)
        assert merged.structure() == rebuilt.structure()
        assert merged.n_failed_logs == rebuilt.n_failed_logs == 3

    def test_merge_is_order_insensitive(self):
        logs_a = [self._log({"A": 1, "B": 2, "C": 3, "F": 4})]
        logs_b = [self._log({"A": 3, "B": 2, "C": 4, "F": 5})]
        build = lambda logs: ACDag.build(
            defs=self._defs(), failed_logs=logs, failure=self.F
        )
        ab = ACDag.merge([build(logs_a), build(logs_b)])
        ba = ACDag.merge([build(logs_b), build(logs_a)])
        assert ab.structure() == ba.structure()

    def test_merge_rejects_mismatched_failures(self):
        logs = [self._log({"A": 1, "F": 2})]
        dag = ACDag.build(defs=self._defs(), failed_logs=logs, failure=self.F)
        other_defs = dict(self._defs())
        other_fail = FailurePredicate(signature="g")
        other_defs[other_fail.pid] = other_fail
        other = ACDag.build(
            defs=other_defs,
            failed_logs=[
                PredicateLog(
                    observations={
                        self._pid("A"): _obs(1),
                        other_fail.pid: _obs(2),
                    },
                    failed=True,
                )
            ],
            failure=other_fail.pid,
        )
        with pytest.raises(GraphInvariantError, match="different failure"):
            ACDag.merge([dag, other])

    def test_merge_of_one_copies(self):
        logs = [self._log({"A": 1, "B": 2, "F": 3})]
        dag = ACDag.build(defs=self._defs(), failed_logs=logs, failure=self.F)
        merged = ACDag.merge([dag])
        assert merged is not dag
        assert merged.structure() == dag.structure()


class TestCompaction:
    def _analyzed(self, tmp_path, racy_program, corpus):
        store = _build_store(tmp_path / "c", racy_program, corpus)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        pipeline.save()
        return store, pipeline

    def test_compact_reclaims_shadowed_rows_and_evicted_columns(
        self, tmp_path, racy_program, corpus
    ):
        store, pipeline = self._analyzed(tmp_path, racy_program, corpus)
        # Shadow a row: a predicate from a long-gone suite lingers in
        # the matrix file with its own digest.
        matrix = EvalMatrix(store.matrix_path)
        ghost = "ghost[old:Predicate#0]"
        matrix.evaluated[ghost] = (1 << len(matrix.traces)) - 1
        matrix.observed[ghost] = 1
        matrix.digests[ghost] = "digest-of-a-dropped-definition"
        matrix.observations.setdefault(matrix.traces[0], {})[ghost] = [0, 1, 0, 1]
        matrix.save()
        # Evict one trace; its matrix column survives until compaction.
        evicted = sorted(store.entries)[-1]
        assert store.evict(evicted)
        store.save()

        fresh = IncrementalPipeline(
            TraceStore.open(store.root), program=racy_program
        )
        fresh.bootstrap()
        assert fresh.matrix.pair_evaluations == 0  # eviction costs nothing
        stats = fresh.compact()
        assert stats.dropped_rows >= 1
        assert stats.dropped_columns >= 1
        assert stats.bytes_reclaimed > 0

        compacted = EvalMatrix(store.matrix_path)
        assert ghost not in compacted.evaluated
        assert ghost not in compacted.digests
        assert evicted not in compacted.traces
        # and the surviving pairs still answer from the memo
        warm = IncrementalPipeline(
            TraceStore.open(store.root), program=racy_program
        )
        warm.bootstrap()
        assert warm.matrix.pair_evaluations == 0
        assert warm.fully == fresh.fully

    def test_rebootstrap_rediscovers_unless_suite_injected(
        self, tmp_path, racy_program
    ):
        first = collect(racy_program, n_success=8, n_fail=8)
        more = collect(racy_program, n_success=12, n_fail=12)
        held_back = [
            t
            for t in more.successes + more.failures
            if t.seed not in {x.seed for x in first.successes + first.failures}
        ]
        store = _build_store(tmp_path / "c", racy_program, first)
        pipeline = IncrementalPipeline(store, program=racy_program)
        pipeline.bootstrap()
        frozen_by_bootstrap = pipeline.suite
        for trace in held_back:
            pipeline.ingest(trace)
        pipeline.bootstrap()  # a grown corpus gets a fresh discovery
        assert pipeline.suite is not frozen_by_bootstrap

        injected = IncrementalPipeline(
            _build_store(tmp_path / "i", racy_program, first),
            program=racy_program,
            suite=frozen_by_bootstrap,
        )
        injected.bootstrap()
        injected.bootstrap()  # explicit injection survives re-bootstrap
        assert injected.suite is frozen_by_bootstrap

    def test_compact_cli_reports_reclaimed_bytes(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c")
        assert main(["corpus", "init", corpus_dir, "--workload", "network"]) == 0
        assert main(["corpus", "ingest", corpus_dir, "--runs", "4"]) == 0
        assert main(["corpus", "analyze", corpus_dir]) == 0
        capsys.readouterr()
        # evict a trace behind the CLI's back, then compact
        store = TraceStore.open(corpus_dir)
        assert store.evict(sorted(store.entries)[0])
        store.save()
        assert main(["corpus", "compact", corpus_dir]) == 0
        out = capsys.readouterr().out
        assert "evicted trace columns" in out
        assert "reclaimed" in out
