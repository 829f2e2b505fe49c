"""A warm corpus costs nothing, and a corrupt one fails cleanly.

Every run below starts from a copy of ``tests/fixtures/golden_corpus``
(eight stored npgsql traces in the older sharded layout, which the first
``TraceStore.open`` migrates):

* a corpus-mode debug learns through ``IncrementalPipeline.bootstrap``,
  so its second run reuses the persisted suite and reads no trace body;
* a warm ``corpus analyze`` rewrites no eval-matrix file;
* a truncated or garbage corpus file — of the current layout, or of the
  older layout a migration reads — is a ``repro: corpus: ...`` error
  naming the file, not a traceback.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import (
    AnalysisSpec,
    CorpusSpec,
    EventLog,
    RunSpec,
    WorkloadSpec,
    run,
)
from repro.cli import main
from repro.corpus import CorpusError, CorpusSession, TraceStore
from repro import load_workload

GOLDEN = Path(__file__).parent / "fixtures" / "golden_corpus"


@pytest.fixture()
def corpus_dir(tmp_path) -> Path:
    root = tmp_path / "c"
    shutil.copytree(GOLDEN, root)
    return root


def _debug(corpus_dir: Path):
    """One corpus-mode debug of npgsql; returns (report, event log)."""
    log = EventLog()
    report = run(
        RunSpec(
            workload=WorkloadSpec("npgsql"),
            corpus=CorpusSpec(dir=str(corpus_dir)),
            analysis=AnalysisSpec(repeats=3, rng_seed=7),
        ),
        observers=[log],
    )
    return report, log


class TestWarmCorpusSession:
    def test_second_run_loads_no_trace_and_reuses_the_suite(
        self, corpus_dir, monkeypatch
    ):
        cold, cold_log = _debug(corpus_dir)
        assert cold_log.first("suite-frozen").source == "discovered"
        assert cold_log.first("logs-evaluated").fresh > 0
        assert (corpus_dir / "suite.json").exists()

        loads: list[str] = []
        real_load = TraceStore.load

        def counting_load(self, fingerprint):
            loads.append(fingerprint)
            return real_load(self, fingerprint)

        monkeypatch.setattr(TraceStore, "load", counting_load)
        warm, warm_log = _debug(corpus_dir)
        assert loads == []
        assert warm_log.first("logs-evaluated").fresh == 0
        assert warm_log.first("suite-frozen").source == "persisted"
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )


class TestCorpusSessionStages:
    def test_collect_refuses_and_runs_no_simulation(
        self, corpus_dir, monkeypatch
    ):
        import repro.harness.session as live

        sweeps: list = []
        monkeypatch.setattr(
            live, "collect", lambda *a, **k: sweeps.append(a)
        )
        session = CorpusSession(
            load_workload("npgsql").program, TraceStore.open(corpus_dir)
        )
        with pytest.raises(CorpusError, match="collects nothing"):
            session.collect()
        assert sweeps == []
        assert session._corpus is None


def _matrix_files(corpus_dir: Path) -> dict[Path, tuple[int, int]]:
    """Every eval-matrix file with its (inode, mtime): an atomic
    rewrite replaces the inode even when the bytes are unchanged."""
    return {
        path: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in sorted(corpus_dir.rglob("evalmatrix.json"))
    }


class TestWarmAnalyzeWrites:
    def test_warm_analyze_writes_no_matrix_file(self, corpus_dir, capsys):
        assert main(["corpus", "analyze", str(corpus_dir)]) == 0
        cold = _matrix_files(corpus_dir)
        assert list(cold) == [corpus_dir / "evalmatrix.json"]
        capsys.readouterr()
        assert main(["corpus", "analyze", str(corpus_dir)]) == 0
        assert "evaluation: 0 fresh," in capsys.readouterr().out
        assert _matrix_files(corpus_dir) == cold


def _first(pattern: str):
    def pick(root: Path) -> Path:
        return sorted(root.glob(pattern))[0]

    return pick


def _migrated(name: str):
    """A file of the current layout: open (and so migrate) first."""

    def pick(root: Path) -> Path:
        TraceStore.open(root)
        return _first(name)(root)

    return pick


def _analyzed(name: str):
    """A file of the current layout that only an analyze writes."""

    def pick(root: Path) -> Path:
        assert main(["corpus", "analyze", str(root)]) == 0
        return root / name

    return pick


def _truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _garbage(path: Path) -> None:
    path.write_text("not json {")


def _not_an_object(path: Path) -> None:
    path.write_text("[]")


class TestCorruptCorpusFiles:
    @pytest.mark.parametrize(
        "locate, corrupt",
        [
            (_first("shards/*/manifest.json"), _truncate),
            (_migrated("traces/*.json"), _truncate),
            (
                lambda root: root / "shards" / "00" / "evalmatrix.json",
                _garbage,
            ),
            (lambda root: root / "evalmatrix.json", _not_an_object),
            (_migrated("manifest.json"), _truncate),
            (_analyzed("evalmatrix.json"), _garbage),
        ],
        ids=[
            "shard-manifest", "trace-body", "shard-matrix", "matrix-index",
            "manifest", "matrix",
        ],
    )
    def test_analyze_fails_with_a_corpus_error(
        self, corpus_dir, locate, corrupt
    ):
        path = locate(corpus_dir)
        corrupt(path)
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "analyze", str(corpus_dir)])
        message = str(excinfo.value.code)
        assert message.startswith("repro: corpus: "), message
        assert str(path) in message
