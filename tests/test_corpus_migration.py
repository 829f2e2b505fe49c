"""Older corpus layouts open without losing a memoized evaluation.

``tests/fixtures/analyzed_v3`` is a version-3 store (fingerprint-prefix
shards of width 1) of eight network traces, analyzed once by the
release that wrote that layout: per-shard ``evalmatrix.json`` files, the
top-level matrix index, and the persisted ``suite.json``.
``analyzed_v3_report.json`` is the canonical analyze-only report that
release produced from it.  The version-2 and version-1 (flat) variants
are derived from the same files below.

Whatever the layout, the first analyze after ``TraceStore.open`` must
make zero fresh pair evaluations, reuse the persisted suite, and
reproduce the report byte for byte — also when the migration crashed
part-way and a later ``open`` resumed it.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.api import CorpusSpec, EventLog, RunSpec, run
from repro.corpus import TraceStore
from repro.corpus.matrix import EvalMatrix, merge_matrices
from repro.sim.serialize import canonical_json

FIXTURES = Path(__file__).parent / "fixtures"
ANALYZED_V3 = FIXTURES / "analyzed_v3"
REPORT = (FIXTURES / "analyzed_v3_report.json").read_text()


def _v3_shard_dirs() -> list[Path]:
    manifest = json.loads((ANALYZED_V3 / "manifest.json").read_text())
    return [ANALYZED_V3 / "shards" / sid for sid in manifest["shards"]]


def _write_v1(root: Path) -> None:
    """The flat version-1 layout of the fixture: one manifest, one
    ``traces/`` directory, one eval matrix holding every memoized pair."""
    (root / "traces").mkdir(parents=True)
    rows: dict[str, dict] = {}
    for shard in _v3_shard_dirs():
        rows.update(json.loads((shard / "manifest.json").read_text())["traces"])
        for body in (shard / "traces").iterdir():
            shutil.copy(body, root / "traces" / body.name)
    program = json.loads((ANALYZED_V3 / "manifest.json").read_text())["program"]
    (root / "manifest.json").write_text(
        json.dumps({"version": 1, "program": program, "traces": rows})
    )
    merge_matrices(
        EvalMatrix(shard / "evalmatrix.json") for shard in _v3_shard_dirs()
    ).save(root / "evalmatrix.json")
    shutil.copy(ANALYZED_V3 / "suite.json", root / "suite.json")


def _store(tmp_path: Path, layout: str) -> Path:
    root = tmp_path / layout
    if layout == "v1":
        _write_v1(root)
        return root
    shutil.copytree(ANALYZED_V3, root)
    if layout == "v2":
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["version"] = 2
        (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def _analyze(root: Path):
    log = EventLog()
    report = run(
        RunSpec(corpus=CorpusSpec(dir=str(root), mode="incremental")),
        observers=[log],
    )
    return canonical_json(report.to_dict()), log


@pytest.mark.parametrize("layout", ["v1", "v2", "v3"])
def test_first_analyze_after_open_is_warm_and_identical(tmp_path, layout):
    report, log = _analyze(_store(tmp_path, layout))
    assert log.first("suite-frozen").source == "persisted"
    assert log.first("logs-evaluated").fresh == 0
    assert log.first("logs-evaluated").memoized > 0
    assert report == REPORT


def _counting_replace(monkeypatch, crash_at=None) -> list:
    """Route ``os.replace`` (atomic writes and body moves alike) through
    a counter; the ``crash_at``-th call raises instead of renaming."""
    calls: list = []
    real = os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == crash_at:
            raise OSError("injected crash")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def _replace_calls(tmp_path, monkeypatch, layout) -> int:
    root = _store(tmp_path / "count", layout)
    with monkeypatch.context() as patch:
        calls = _counting_replace(patch)
        TraceStore.open(root)
    return len(calls)


@pytest.mark.parametrize("layout", ["v1", "v3"])
def test_a_crash_at_any_rename_resumes_on_reopen(tmp_path, monkeypatch, layout):
    n_calls = _replace_calls(tmp_path, monkeypatch, layout)
    # v3: the folded matrix, one move per trace body, the manifest commit
    assert n_calls == (1 if layout == "v1" else 1 + 8 + 1)
    fingerprints = set(TraceStore.open(_store(tmp_path / "ref", layout)).entries)
    for k in range(1, n_calls + 1):
        root = _store(tmp_path / f"crash{k}", layout)
        with monkeypatch.context() as patch:
            _counting_replace(patch, crash_at=k)
            with pytest.raises(OSError, match="injected crash"):
                TraceStore.open(root)
        store = TraceStore.open(root)
        assert set(store.entries) == fingerprints, k
        assert not (root / "shards").exists()
        report, log = _analyze(root)
        assert log.first("logs-evaluated").fresh == 0, k
        assert report == REPORT, k


def test_a_crash_removing_the_old_buckets_finishes_on_reopen(
    tmp_path, monkeypatch
):
    root = _store(tmp_path, "v3")

    def crash(path, *args, **kwargs):
        raise OSError("injected crash")

    with monkeypatch.context() as patch:
        patch.setattr(shutil, "rmtree", crash)
        with pytest.raises(OSError, match="injected crash"):
            TraceStore.open(root)
    # committed already: the manifest is v4 and the buckets are left over
    assert json.loads((root / "manifest.json").read_text())["version"] == 4
    assert (root / "shards").exists()
    TraceStore.open(root)
    assert not (root / "shards").exists()
    report, log = _analyze(root)
    assert log.first("logs-evaluated").fresh == 0
    assert report == REPORT


def test_stale_other_width_buckets_are_ignored(tmp_path):
    """An interrupted resharding could leave buckets of another width
    (and their index entries) behind; the fold must not count their
    pairs twice, and migration still ends warm."""
    root = _store(tmp_path, "v3")
    stale = root / "shards" / "11"
    shutil.copytree(root / "shards" / "1", stale)
    index = json.loads((root / "evalmatrix.json").read_text())
    index["shards"].append("11")
    (root / "evalmatrix.json").write_text(json.dumps(index))
    pairs = sum(
        EvalMatrix(path).n_pairs
        for path in ANALYZED_V3.glob("shards/*/evalmatrix.json")
    )
    TraceStore.open(root)
    assert EvalMatrix(root / "evalmatrix.json").n_pairs == pairs
    report, log = _analyze(root)
    assert log.first("logs-evaluated").fresh == 0
    assert report == REPORT


def test_merge_drops_rows_decided_under_different_definitions():
    a, b = EvalMatrix(), EvalMatrix()
    for matrix, fp, digest in ((a, "fa", "d1"), (b, "fb", "d2")):
        matrix.column(fp, failed=False)
        for pid in ("kept", "drifted"):
            matrix.evaluated[pid] = matrix.observed[pid] = 1
            matrix.observations.setdefault(fp, {})[pid] = [0, 1, 0, 1]
        matrix.digests.update(kept="same", drifted=digest)
    merged = merge_matrices([a, b])
    assert merged.traces == ["fa", "fb"]
    assert merged.evaluated == {"kept": 0b11}
    assert merged.digests == {"kept": "same"}
    assert merged.observations == {
        "fa": {"kept": [0, 1, 0, 1]}, "fb": {"kept": [0, 1, 0, 1]},
    }
