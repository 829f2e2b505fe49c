"""One predicate-evaluation path, proven by differential testing.

Every layer of corpus evaluation is checked against the plain
per-predicate ``PredicateDef.evaluate`` loop as the oracle, over the
seeded hostile corpora of :mod:`tests.gen` (unicode names, NaN returns,
empty traces, duplicate keys):

* **kernel parity** — ``SuiteKernel.observations(trace)`` equals the
  per-predicate loop, entry for entry and in the same order, for every
  predicate kind including data races and compounds, on both
  ``store.load`` traces and ``trace_from_dict`` traces;
* **matrix parity** — the batch paths (``evaluate_fingerprints`` and
  ``evaluate_shards``) give the same logs, memo counters, and persisted
  bitsets as per-trace ``log_for``, and SD counters equal to feeding
  those logs to an :class:`IncrementalDebugger`;
* **lazy loads** — a warm ``evaluate_fingerprints`` reads no trace
  bodies and evaluates no pairs;
* **reports** — byte-identical ``SessionReport.to_dict()`` for any job
  count, and against the committed golden fixture.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
from pathlib import Path

import pytest

from gen import OBJECTS, RETURN_VALUES, make_corpus
from repro.core.evalkernel import SuiteKernel, race_candidates
from repro.core.extraction import PredicateSuite
from repro.core.predicates import (
    CompoundAndPredicate,
    DataRacePredicate,
    ExecutedPredicate,
    FailurePredicate,
    MethodFailsPredicate,
    OrderViolationPredicate,
    PredicateDef,
    PredicateKind,
    TooFastPredicate,
    TooSlowPredicate,
    WrongReturnPredicate,
)
from repro.core.statistical import IncrementalDebugger
from repro.corpus.session import CorpusSession
from repro.corpus.store import TraceStore
from repro.exec import ExecutionEngine, make_backend
from repro.harness.session import SessionConfig
from repro.sim.serialize import canonical_json, trace_from_dict, trace_to_dict
from repro.sim.tracing import MethodKey
from repro.workloads.common import REGISTRY

SEEDS = range(24)
FIXTURES = Path(__file__).parent / "fixtures"


def _ingest(root, payloads) -> TraceStore:
    store = TraceStore.init(root, program=payloads[0]["program"])
    for payload in payloads:
        store.ingest_payload(payload)
    store.save()
    return store


def _suite_for(payloads) -> PredicateSuite:
    """A suite touching every predicate kind, built from what the
    corpus actually contains plus keys/values that miss entirely."""
    traces = [trace_from_dict(p) for p in payloads]
    keys = sorted(
        {m.key for t in traces for m in t.method_executions()}, key=str
    )
    excs = sorted(
        {
            m.exception
            for t in traces
            for m in t.method_executions()
            if m.exception is not None
        }
    )
    sigs = sorted(
        {t.failure.signature for t in traces if t.failure is not None}
    )
    defs: dict[str, PredicateDef] = {}
    for i, key in enumerate(keys[:6]):
        defs[f"exec{i}"] = ExecutedPredicate(key)
        defs[f"slow{i}"] = TooSlowPredicate(key, threshold=i * 20)
        defs[f"fast{i}"] = TooFastPredicate(key, threshold=5 + i * 30)
    for i, (key, exc) in enumerate(
        itertools.product(keys[:3], excs[:2])
    ):
        defs[f"fails{i}"] = MethodFailsPredicate(key, exc)
    for i, (key, value) in enumerate(zip(keys, RETURN_VALUES)):
        defs[f"wrong{i}"] = WrongReturnPredicate(key, value)
    for i, (a, b) in enumerate(itertools.product(keys[:3], keys[:3])):
        defs[f"order{i}"] = OrderViolationPredicate(a, b)
    races = sorted(
        set().union(*(race_candidates(t) for t in traces)), key=str
    )
    for i, (a, b, obj) in enumerate(races[:6]):
        defs[f"race{i}"] = DataRacePredicate(a, b, obj)
    for i, ((a, b), obj) in enumerate(
        itertools.product(itertools.combinations(keys[:3], 2), OBJECTS[:2])
    ):
        defs[f"race-guess{i}"] = DataRacePredicate(a, b, obj)
    for i, signature in enumerate(sigs):
        defs[f"failure{i}"] = FailurePredicate(signature)
    missing = MethodKey("no-such-method", "T404", 9)
    defs["exec-miss"] = ExecutedPredicate(missing)
    if keys:
        defs["order-miss"] = OrderViolationPredicate(missing, keys[0])
        defs["wrong-nan-miss"] = WrongReturnPredicate(
            keys[0], float("nan")
        )
    if len(keys) >= 2:
        defs["and0"] = CompoundAndPredicate(
            (ExecutedPredicate(keys[0]), ExecutedPredicate(keys[1]))
        )
        defs["and1"] = CompoundAndPredicate(
            (
                TooSlowPredicate(keys[0], threshold=10),
                ExecutedPredicate(keys[1]),
            )
        )
    if races:
        a, b, obj = races[0]
        defs["and-race"] = CompoundAndPredicate(
            (ExecutedPredicate(a), DataRacePredicate(a, b, obj))
        )
    if sigs and keys:
        defs["and-failure"] = CompoundAndPredicate(
            (FailurePredicate(sigs[0]), ExecutedPredicate(keys[0]))
        )
    return PredicateSuite(defs=defs)


def _per_predicate(suite: PredicateSuite, trace) -> list:
    """The oracle: the plain per-predicate loop, in suite order."""
    found = []
    for pid, pred in suite.defs.items():
        obs = pred.evaluate(trace)
        if obs is not None:
            found.append((pid, obs))
    return found


def _tree_digest(root: Path) -> str:
    """Digest of every file path and byte under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestKernelParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_matches_evaluate_for_every_kind(self, tmp_path, seed):
        payloads = make_corpus(seed)
        store = _ingest(tmp_path / "c", payloads)
        suite = _suite_for(payloads)
        kinds = {p.kind for p in suite.defs.values()}
        assert {PredicateKind.DATA_RACE, PredicateKind.FAILURE} <= kinds
        kernel = SuiteKernel(suite.defs)
        traces = [store.load(fp) for fp in sorted(store.entries)] + [
            trace_from_dict(p) for p in payloads
        ]
        for trace in traces:
            assert list(kernel.observations(trace).items()) == (
                _per_predicate(suite, trace)
            ), f"seed {seed} trace {trace.seed}"

    def test_indexed_kinds_share_the_default_evaluate(self):
        key = MethodKey("m", "T0", 0)
        indexed = [
            DataRacePredicate(key, key, "o"),
            MethodFailsPredicate(key, "E"),
            TooSlowPredicate(key, threshold=1),
            TooFastPredicate(key, threshold=1),
            WrongReturnPredicate(key, None),
            OrderViolationPredicate(key, key),
            ExecutedPredicate(key),
        ]
        for pred in indexed:
            assert pred.supports_indexed
            assert type(pred).evaluate is PredicateDef.evaluate
        for pred in (CompoundAndPredicate((indexed[0],)), FailurePredicate("s")):
            assert not pred.supports_indexed
            assert type(pred).evaluate is not PredicateDef.evaluate


def _matrix_state(matrix) -> tuple:
    """Memo counters plus the saved bitset file's bytes."""
    matrix.save()
    return (
        matrix.pair_evaluations,
        matrix.pair_hits,
        matrix.kernel_calls,
        matrix.store.matrix_path.read_bytes(),
    )


def _log_key(log) -> tuple:
    return (
        log.failed,
        log.seed,
        log.failure_signature,
        list(log.observations.items()),
    )


def _reconstructed(matrix, suite, fps) -> dict:
    """Every evaluated trace's log key, rebuilt from the matrix bitsets
    (batch evaluation returns no logs)."""
    entries = matrix.store.entries
    return {
        fp: _log_key(
            matrix.reconstruct_log(
                suite,
                fp,
                failed=entries[fp].failed,
                seed=entries[fp].seed,
                signature=entries[fp].signature,
            )
        )
        for fp in fps
    }


class TestMatrixParity:
    @pytest.mark.parametrize("path", ("fingerprints", "shards"))
    @pytest.mark.parametrize("seed", (0, 7, 13))
    def test_batch_equals_per_trace_log_for(self, tmp_path, seed, path):
        payloads = make_corpus(seed)
        suite = _suite_for(payloads)

        reference_store = _ingest(tmp_path / "ref", payloads)
        fps = sorted(reference_store.entries)
        reference = reference_store.eval_matrix()
        logs = [reference.log_for(suite, reference_store.load(fp)) for fp in fps]
        expected = {fp: _log_key(log) for fp, log in zip(fps, logs)}
        oracle = IncrementalDebugger()
        oracle.extend(logs)

        store = _ingest(tmp_path / "batch", payloads)
        matrix = store.eval_matrix()
        if path == "fingerprints":
            counters = matrix.evaluate_fingerprints(suite, fps)
        else:
            counters = matrix.evaluate_shards(
                suite, [store.load(fp) for fp in fps]
            )
        assert _reconstructed(matrix, suite, fps) == expected
        assert (counters.n_failed, counters.n_success, counters.counts) == (
            oracle.n_failed, oracle.n_success, oracle.counts
        )
        assert _matrix_state(matrix) == _matrix_state(reference)


class TestLazyLoads:
    def test_warm_evaluate_fingerprints_reads_no_trace_bodies(
        self, tmp_path, monkeypatch
    ):
        payloads = make_corpus(2)
        suite = _suite_for(payloads)
        store = _ingest(tmp_path / "c", payloads)
        fps = sorted(store.entries)
        cold = store.eval_matrix()
        cold.evaluate_fingerprints(suite, fps)
        cold_logs = _reconstructed(cold, suite, fps)
        cold.save()

        loads: list[str] = []
        real_load = TraceStore.load

        def counting_load(self, fingerprint):
            loads.append(fingerprint)
            return real_load(self, fingerprint)

        monkeypatch.setattr(TraceStore, "load", counting_load)
        warm = TraceStore.open(tmp_path / "c").eval_matrix()
        warm.evaluate_fingerprints(suite, fps)
        warm_logs = _reconstructed(warm, suite, fps)
        assert loads == []
        assert warm.pair_evaluations == 0
        assert warm.kernel_calls == 0
        assert warm.pair_hits == len(fps) * len(suite.defs)
        assert warm_logs == cold_logs

        # One new pid leaves every column with one undecided pair: each
        # trace body is read exactly once, for one kernel call.
        grown = PredicateSuite(
            defs={
                **suite.defs,
                "exec-extra": ExecutedPredicate(MethodKey("extra", "T9", 0)),
            }
        )
        again = TraceStore.open(tmp_path / "c").eval_matrix()
        again.evaluate_fingerprints(grown, fps)
        assert sorted(loads) == fps
        assert again.pair_evaluations == len(fps)
        assert again.kernel_calls == len(fps)


class TestWorkloadReports:
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_workload_report_is_byte_identical(self, tmp_path, name):
        from repro.harness.runner import collect

        workload = REGISTRY.build(name)
        corpus = collect(workload.program, n_success=8, n_fail=8)
        seed_root = tmp_path / "seed"
        store = TraceStore.init(seed_root, program=workload.program.name)
        for trace in corpus.successes + corpus.failures:
            store.ingest_payload(trace_to_dict(trace))
        store.save()

        reports = {}
        for jobs in (0, 8):
            root = tmp_path / f"jobs{jobs}"
            shutil.copytree(seed_root, root)
            engine = (
                ExecutionEngine(backend=make_backend("thread", jobs=jobs))
                if jobs
                else None
            )
            config = SessionConfig(rng_seed=7, repeats=3, engine=engine)
            session = CorpusSession(
                workload.program, TraceStore.open(root), config=config
            )
            reports[jobs] = canonical_json(session.run().to_dict())
            if engine is not None:
                engine.close()
        assert reports[0] == reports[8]


def _golden_report(root: Path) -> str:
    workload = REGISTRY.build("npgsql")
    config = SessionConfig(rng_seed=7, repeats=3)
    session = CorpusSession(
        workload.program, TraceStore.open(root), config=config
    )
    return canonical_json(session.run().to_dict())


class TestGoldenReport:
    """Byte-for-byte regression against a committed fixture.

    ``tests/fixtures/golden_corpus`` is a tiny npgsql trace store and
    ``golden_report.json`` the canonical-JSON ``SessionReport.to_dict()``
    a seeded session produces from it.  Any change to serialization,
    predicate semantics, or evaluation order that alters a single byte
    of the report fails here first.  Regenerate deliberately (see
    docs/corpus.md) when the change is intended.
    """

    def test_report_matches_committed_bytes(self, tmp_path):
        fixture = FIXTURES / "golden_corpus"
        before = _tree_digest(fixture)
        root = tmp_path / "c"
        shutil.copytree(fixture, root)
        golden = (FIXTURES / "golden_report.json").read_text()
        assert _golden_report(root) == golden
        assert _tree_digest(fixture) == before
