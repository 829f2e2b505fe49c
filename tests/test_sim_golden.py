"""The simulator's output, pinned run by run.

The golden corpus and report fixtures never run the simulator, so they
cannot tell whether a change to :mod:`repro.sim` altered a single
trace.  This module can: it runs a fixed set of executions and compares
each one against ``tests/fixtures/golden_sim.json``:

* the six case studies at seeds 0–59, without interventions;
* each case study under one intervention of every type
  (``SerializeMethods``, ``CatchException``, ``DelayBefore``,
  ``DelayReturn``, ``ForceReturn`` with ``skip_body`` true and false,
  ``ForceOrder``);
* a ``ReplayStrategy`` run per case study that replays half a recorded
  schedule and hands the rest to a ``SwapTail``;
* small deadlock, hang and crash programs.

Each run pins four values: the digest of the serialized trace, the
step count, the schedule signature, and the canonical (footprint-based)
signature.  Any change to the trace, the interleaving or the recorded
footprints shows up as a named mismatch.

The fixture is regenerated only on purpose, when the simulator's
output is meant to change::

    PYTHONPATH=src python tests/test_sim_golden.py --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.explore.strategies import SwapTail
from repro.sim import (
    CatchException,
    DelayBefore,
    DelayReturn,
    ForceOrder,
    ForceReturn,
    MethodSelector,
    Program,
    SerializeMethods,
    Simulator,
)
from repro.sim.schedule import ReplayStrategy
from repro.sim.serialize import stable_digest, trace_to_dict
from repro.workloads.common import REGISTRY

FIXTURE = Path(__file__).parent / "fixtures" / "golden_sim.json"

CASE_STUDIES = (
    "npgsql",
    "kafka",
    "cosmosdb",
    "network",
    "buildandtest",
    "healthtelemetry",
)
BASELINE_SEEDS = range(60)
INTERVENTION_SEEDS = range(10)

#: Per case study: two traced methods to intervene on, and a read-only
#: method for the return-value and exception interventions (which the
#: paper restricts to methods without side effects).
TARGETS = {
    "npgsql": ("TryGetValue", "GetOrAdd", "GetPoolStatus"),
    "kafka": ("PollMessages", "Commit", "GetCommitStatus"),
    "cosmosdb": ("SendRequest", "ProcessResponse", "CacheLookup"),
    "network": ("RegisterRoute", "AllocateSessionId", "GetRouteHealth"),
    "buildandtest": ("CompileStep", "PackageStep", "GetArtifactCount"),
    "healthtelemetry": ("FlushBuffer", "AppendRecord", "GetWriteCursor"),
}


def _interventions(program: Program, name: str) -> dict:
    first, second, readonly = TARGETS[name]
    a, b, ro = (MethodSelector(m) for m in (first, second, readonly))
    # Force the read-only method to return what it returned unforced,
    # so the workload code downstream sees a value of the usual type.
    baseline = Simulator(program).run(0).trace
    value = next(baseline.executions_of(readonly)).return_value
    return {
        "serialize": SerializeMethods((a, b)),
        "catch": CatchException(ro, fallback=value),
        "delay-before": DelayBefore(a, ticks=3),
        "delay-return": DelayReturn(a, ticks=5),
        "force-return-skip": ForceReturn(ro, value, skip_body=True),
        "force-return": ForceReturn(ro, value, skip_body=False),
        "force-order": ForceOrder(first=b, then=a),
    }


def _deadlock_program() -> Program:
    def main(ctx):
        yield from ctx.spawn("other", "Other")
        yield from ctx.acquire("a")
        yield from ctx.work(10)
        yield from ctx.acquire("b")
        return "unreachable"

    def other(ctx):
        yield from ctx.acquire("b")
        yield from ctx.work(10)
        yield from ctx.acquire("a")
        return "unreachable"

    return Program(name="dl", methods={"Main": main, "Other": other}, main="Main")


def _hang_program() -> Program:
    def main(ctx):
        while True:
            yield from ctx.work(1)

    return Program(name="hang", methods={"Main": main}, main="Main")


def _crash_program() -> Program:
    def main(ctx):
        yield from ctx.spawn("w", "Worker")
        yield from ctx.acquire("shared")
        yield from ctx.work(20)
        yield from ctx.release("shared")
        yield from ctx.join("w")
        return "ok"

    def worker(ctx):
        yield from ctx.acquire("shared")
        yield from ctx.work(2)
        ctx.throw("Boom", "worker died")

    return Program(
        name="crash", methods={"Main": main, "Worker": worker}, main="Main"
    )


def _pin(result) -> dict:
    return {
        "trace": stable_digest(trace_to_dict(result.trace)),
        "steps": result.steps,
        "schedule": result.schedule.signature(),
        "canonical": result.schedule.canonical_signature(result.footprints),
    }


def _runs():
    """Yield ``(key, thunk)`` for every pinned execution, in a fixed
    order; ``thunk()`` runs the simulator and returns its result."""
    for name in CASE_STUDIES:
        program = REGISTRY.build(name).program
        sim = Simulator(program)
        for seed in BASELINE_SEEDS:
            yield f"{name}/seed-{seed}", (lambda s=seed: sim.run(s))
        for label, iv in _interventions(program, name).items():
            for seed in INTERVENTION_SEEDS:
                yield (
                    f"{name}/{label}/seed-{seed}",
                    (lambda s=seed, iv=iv: sim.run(s, (iv,))),
                )

        def replay(sim=sim, seed=3):
            recorded = sim.run(seed).schedule
            cut = len(recorded) // 2
            tail = SwapTail(queue=recorded.decisions[cut:][::-1], seed=seed)
            strategy = ReplayStrategy(schedule=recorded, prefix=cut, tail=tail)
            return sim.run(seed, strategy=strategy)

        yield f"{name}/replay-swap-tail", replay
    for seed in range(5):
        yield f"deadlock/seed-{seed}", (
            lambda s=seed: Simulator(_deadlock_program()).run(s)
        )
    yield "hang/seed-0", (
        lambda: Simulator(_hang_program(), max_steps=500).run(0)
    )
    for seed in range(5):
        yield f"crash/seed-{seed}", (
            lambda s=seed: Simulator(_crash_program()).run(s)
        )


def compute() -> dict:
    return {key: _pin(thunk()) for key, thunk in _runs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def observed() -> dict:
    return compute()


def test_fixture_covers_every_run(golden, observed):
    assert sorted(golden) == sorted(observed)


@pytest.mark.parametrize(
    "group",
    [*CASE_STUDIES, "deadlock", "hang", "crash"],
)
def test_runs_match_golden(group, golden, observed):
    mismatched = {
        key: {"golden": golden[key], "observed": observed[key]}
        for key in golden
        if key.split("/")[0] == group and golden[key] != observed.get(key)
    }
    assert not mismatched, json.dumps(mismatched, indent=1)[:4000]


def test_failure_programs_fail_as_named():
    """The three small programs really reach their failure modes, so
    their pins cover the deadlock, hang and crash paths."""
    assert Simulator(_deadlock_program()).run(0).failure.mode == "deadlock"
    hang = Simulator(_hang_program(), max_steps=500).run(0)
    assert hang.failure.mode == "hang"
    assert Simulator(_crash_program()).run(0).failure.mode == "crash"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
