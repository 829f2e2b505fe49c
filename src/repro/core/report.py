"""Human-readable explanations — and the machine-readable report schema.

The paper's headline deliverable is not just the root cause but the
*story*: "(1) two threads race on an index variable (2) the second
thread accesses the array beyond its size (3) this throws
IndexOutOfRange (4) the application fails to handle it and crashes."
This module turns a :class:`~repro.core.discovery.DiscoveryResult` plus
the predicate definitions into exactly that kind of numbered narrative.

It is also the home of the **versioned report JSON schema**
(:data:`REPORT_SCHEMA_VERSION`): :func:`report_to_dict` renders a
:class:`~repro.harness.session.SessionReport` as a deterministic,
JSON-able dict — the one payload shape shared by ``repro run --json``,
the benchmarks, and the test suite — and :func:`validate_report_dict`
checks a payload against the schema, returning actionable problems.
The dict is a pure function of the analysis results (no wall-clock
times, no machine state), so two runs that computed the same thing
serialize byte-identically.  The one deliberate exception is the
additive ``meta`` key: its ``run_id`` and ``metrics`` stay ``None``
unless observability was explicitly attached to the run (see
:mod:`repro.obs`), in which case they carry the run id and the metrics
snapshot — and only they differ between two otherwise-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .discovery import DiscoveryResult
from .predicates import PredicateDef

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExplanationStep:
    """One hop of the causal path."""

    index: int
    pid: str
    description: str
    role: str  # "root cause" | "effect" | "failure"


@dataclass
class Explanation:
    """The causal path rendered as a numbered narrative."""

    steps: list[ExplanationStep]
    n_rounds: int
    n_executions: int

    @property
    def root_cause(self) -> Optional[ExplanationStep]:
        return self.steps[0] if len(self.steps) > 1 else None

    def render(self) -> str:
        if len(self.steps) <= 1:
            return (
                "No causal predicate was confirmed; the available "
                "predicates do not explain the failure."
            )
        lines = ["Causal explanation of the failure:"]
        for step in self.steps:
            lines.append(f"  ({step.index}) [{step.role}] {step.description}")
        lines.append(
            f"Derived with {self.n_rounds} intervention rounds "
            f"({self.n_executions} executions)."
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def render_sd_ranking(
    stats: "list",
    defs: Mapping[str, PredicateDef],
    limit: int = 20,
) -> str:
    """What classic statistical debugging hands the developer.

    A ranked list of predicates with precision/recall — no root cause
    singled out, no causal story.  Rendered so examples and the CLI can
    put the paper's motivating contrast (SD's flat list vs. AID's causal
    path) side by side.
    """
    lines = ["Statistical debugging output (ranked by F1):"]
    for stat in stats[:limit]:
        pred = defs.get(stat.pid)
        description = pred.description if pred is not None else stat.pid
        lines.append(
            f"  P={stat.precision:4.2f} R={stat.recall:4.2f}  {description}"
        )
    hidden = max(0, len(stats) - limit)
    if hidden:
        lines.append(f"  … and {hidden} more predicates")
    lines.append(
        "(every line is a *suspect*; SD leaves choosing and connecting "
        "them to the developer)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The versioned report schema
# ---------------------------------------------------------------------------


def explanation_to_dict(explanation: Explanation) -> dict:
    return {
        "steps": [
            {
                "index": step.index,
                "pid": step.pid,
                "role": step.role,
                "description": step.description,
            }
            for step in explanation.steps
        ],
        "text": explanation.render(),
    }


def report_to_dict(report) -> dict:
    """Render a session report as the versioned JSON payload.

    ``report`` is duck-typed (any object with the
    :class:`~repro.harness.session.SessionReport` attributes), so this
    module stays independent of the harness.  ``kind`` is ``"session"``
    when interventions ran (discovery + explanation present) and
    ``"analysis"`` for analyze-only runs (both sections ``None``).
    """
    discovery = report.discovery
    collection = None
    if report.corpus is not None:
        collection = {
            "n_success": len(report.corpus.successes),
            "n_fail": len(report.corpus.failures),
        }
    elif report.n_success is not None or report.n_fail is not None:
        collection = {
            "n_success": report.n_success or 0,
            "n_fail": report.n_fail or 0,
        }
    program = report.program.name if report.program is not None else None
    if program is None:
        program = getattr(report, "program_name", None)
    nodes, edges = report.dag.structure()
    payload: dict = {
        "schema": REPORT_SCHEMA_VERSION,
        # Observability metadata: run_id and metrics stay None unless a
        # repro.obs.ObsContext was attached — the rest of the payload is
        # byte-identical with observability on or off (metrics carry
        # wall-clock, so stamping them unconditionally would break the
        # "pure function of the analysis results" invariant above).
        "meta": {
            "schema_version": REPORT_SCHEMA_VERSION,
            "run_id": getattr(report, "run_id", None),
            "metrics": getattr(report, "metrics", None),
        },
        "kind": "session" if discovery is not None else "analysis",
        "program": program,
        "approach": report.approach.value if report.approach else None,
        "signature": report.signature,
        "collection": collection,
        "predicates": {
            "n_extracted": len(report.suite),
            "n_fully_discriminative": len(report.fully_discriminative),
            "fully_discriminative": list(report.fully_discriminative),
        },
        "dag": {
            "n_nodes": len(nodes),
            "n_edges": len(edges),
            "nodes": sorted(nodes),
            "edges": sorted([u, v] for u, v in edges),
        },
        "discovery": None,
        "explanation": None,
    }
    if discovery is not None:
        payload["discovery"] = {
            "causal_path": list(discovery.causal_path),
            "failure": discovery.failure,
            "root_cause": discovery.root_cause,
            "spurious": list(discovery.spurious),
            "n_rounds": discovery.n_rounds,
            "n_executions": discovery.n_executions,
        }
    if report.explanation is not None:
        payload["explanation"] = explanation_to_dict(report.explanation)
    return payload


#: schema key → (required, type-or-None-allowed) — the shape checked by
#: :func:`validate_report_dict`
_TOP_LEVEL_KEYS = {
    "schema": (int, False),
    "meta": (dict, False),
    "kind": (str, False),
    "program": (str, True),
    "approach": (str, True),
    "signature": (str, True),
    "collection": (dict, True),
    "predicates": (dict, False),
    "dag": (dict, False),
    "discovery": (dict, True),
    "explanation": (dict, True),
}


def validate_report_dict(payload: object) -> list[str]:
    """Check a payload against the report schema; returns problems.

    An empty list means the payload is a valid version-
    |REPORT_SCHEMA_VERSION| report.  Problems are dotted-path-prefixed
    and actionable (what was expected, what was found).
    """
    if not isinstance(payload, dict):
        return [f"expected an object, got {type(payload).__name__}"]
    problems: list[str] = []
    if payload.get("schema") != REPORT_SCHEMA_VERSION:
        problems.append(
            f"schema: expected {REPORT_SCHEMA_VERSION}, "
            f"got {payload.get('schema')!r}"
        )
    for key, (expected, nullable) in _TOP_LEVEL_KEYS.items():
        if key not in payload:
            # "meta" arrived in-version as an additive key: payloads
            # written before it are still valid version-1 reports.
            if key != "meta":
                problems.append(f"{key}: missing")
            continue
        value = payload[key]
        if value is None:
            if not nullable:
                problems.append(f"{key}: must not be null")
            continue
        if not isinstance(value, expected):
            problems.append(
                f"{key}: expected {expected.__name__}, "
                f"got {type(value).__name__}"
            )
    unknown = sorted(set(payload) - set(_TOP_LEVEL_KEYS))
    if unknown:
        problems.append(
            f"unknown key {unknown[0]!r} "
            f"(valid: {', '.join(sorted(_TOP_LEVEL_KEYS))})"
        )
    if problems:
        return problems

    meta = payload.get("meta")
    if isinstance(meta, dict):
        for subkey in ("schema_version", "run_id", "metrics"):
            if subkey not in meta:
                problems.append(f"meta.{subkey}: missing")
        if meta.get("schema_version") != payload["schema"]:
            problems.append(
                f"meta.schema_version: expected {payload['schema']}, "
                f"got {meta.get('schema_version')!r}"
            )
    kind = payload["kind"]
    if kind not in ("session", "analysis"):
        problems.append(
            f"kind: expected 'session' or 'analysis', got {kind!r}"
        )
    if kind == "session":
        for key in ("discovery", "explanation"):
            if payload[key] is None:
                problems.append(f"{key}: required for kind 'session'")
    for key, subkeys in (
        ("predicates", ("n_extracted", "n_fully_discriminative",
                        "fully_discriminative")),
        ("dag", ("n_nodes", "n_edges", "nodes", "edges")),
    ):
        for subkey in subkeys:
            if subkey not in payload[key]:
                problems.append(f"{key}.{subkey}: missing")
    discovery = payload.get("discovery")
    if isinstance(discovery, dict):
        for subkey in ("causal_path", "failure", "n_rounds", "n_executions"):
            if subkey not in discovery:
                problems.append(f"discovery.{subkey}: missing")
    explanation = payload.get("explanation")
    if isinstance(explanation, dict):
        for subkey in ("steps", "text"):
            if subkey not in explanation:
                problems.append(f"explanation.{subkey}: missing")
    return problems


def explain(
    result: DiscoveryResult, defs: Mapping[str, PredicateDef]
) -> Explanation:
    """Build an explanation from a discovery result."""
    steps: list[ExplanationStep] = []
    path = result.causal_path
    for i, pid in enumerate(path):
        if i == len(path) - 1:
            role = "failure"
        elif i == 0:
            role = "root cause"
        else:
            role = "effect"
        pred = defs.get(pid)
        description = pred.description if pred is not None else pid
        steps.append(
            ExplanationStep(index=i + 1, pid=pid, description=description, role=role)
        )
    return Explanation(
        steps=steps,
        n_rounds=result.n_rounds,
        n_executions=result.n_executions,
    )
