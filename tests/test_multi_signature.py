"""Multi-signature debugging: one root cause per failure group."""

from __future__ import annotations

import pytest

from repro.harness.multi import debug_all
from repro.harness.session import AIDSession, SessionConfig
from repro.sim import Program


def _two_bugs_program() -> Program:
    """Two independent intermittent bugs with distinct signatures."""

    def main(ctx):
        ctx.poke("parse_bug", ctx.rand() < 0.30)
        ctx.poke("quota_bug", ctx.rand() < 0.30)
        yield from ctx.call("ParseInput")
        yield from ctx.call("CheckQuota")
        yield from ctx.call("Serve")
        return "ok"

    def parse_input(ctx):
        yield from ctx.work(3)
        mangled = yield from ctx.call("DecodeHeader")
        if mangled:
            ctx.throw("ParseError", "mangled header")
        return "parsed"

    def decode_header(ctx):
        yield from ctx.work(2)
        return bool(ctx.peek("parse_bug"))

    def check_quota(ctx):
        yield from ctx.work(3)
        exceeded = yield from ctx.call("ReadQuotaGauge")
        if exceeded:
            ctx.throw("QuotaExceeded", "gauge past limit")
        return "within-quota"

    def read_quota_gauge(ctx):
        yield from ctx.work(2)
        return bool(ctx.peek("quota_bug"))

    def serve(ctx):
        yield from ctx.work(2)
        return "served"

    return Program(
        name="twobugs",
        methods={
            "Main": main,
            "ParseInput": parse_input,
            "DecodeHeader": decode_header,
            "CheckQuota": check_quota,
            "ReadQuotaGauge": read_quota_gauge,
            "Serve": serve,
        },
        main="Main",
        readonly_methods=frozenset(
            {"ParseInput", "DecodeHeader", "CheckQuota", "ReadQuotaGauge"}
        ),
    )


@pytest.fixture(scope="module")
def multi_report():
    return debug_all(
        _two_bugs_program(),
        config=SessionConfig(n_success=40, n_fail=40, repeats=15),
        min_failures=8,
    )


class TestDebugAll:
    def test_both_signatures_found(self, multi_report):
        assert len(multi_report.signature_counts) == 2
        signatures = set(multi_report.signature_counts)
        assert any("ParseError" in s for s in signatures)
        assert any("QuotaExceeded" in s for s in signatures)

    def test_each_signature_gets_its_own_root_cause(self, multi_report):
        roots = {
            sig: report.discovery.root_cause
            for sig, report in multi_report.reports.items()
        }
        for sig, root in roots.items():
            assert root is not None, sig
            if "ParseError" in sig:
                assert "DecodeHeader" in root or "ParseInput" in root
            else:
                assert "ReadQuotaGauge" in root or "CheckQuota" in root

    def test_cross_bug_predicates_not_fully_discriminative(self, multi_report):
        """Within one signature's session, the *other* bug's predicates
        cannot be fully discriminative (they fire independently)."""
        for sig, report in multi_report.reports.items():
            other = "ReadQuotaGauge" if "ParseError" in sig else "DecodeHeader"
            assert all(
                other not in pid for pid in report.causal_path
            ), (sig, report.causal_path)

    def test_render(self, multi_report):
        text = multi_report.render()
        assert "root cause" in text
        assert "×" in text

    def test_min_failures_skips_rare_signatures(self):
        report = debug_all(
            _two_bugs_program(),
            config=SessionConfig(n_success=30, n_fail=30, repeats=10),
            min_failures=10_000,  # absurd: everything gets skipped
        )
        assert not report.reports
        assert report.skipped
        assert "not debugged" in report.render()


def test_each_session_replays_its_signatures_failing_seeds(monkeypatch):
    """``debug_all`` seeds each session's corpus directly (no collection
    stage); interventions must still replay that signature's failures."""
    seen = []
    real_make_runner = AIDSession.make_runner

    def spy(self):
        runner = real_make_runner(self)
        seen.append((self._corpus, runner.seeds))
        return runner

    monkeypatch.setattr(AIDSession, "make_runner", spy)
    report = debug_all(
        _two_bugs_program(),
        config=SessionConfig(n_success=30, n_fail=30, repeats=4),
        min_failures=4,
    )
    assert len(seen) == len(report.reports) == 2
    for corpus, seeds in seen:
        failing = corpus.failing_seeds[:4]
        assert failing
        assert seeds[: len(failing)] == failing
