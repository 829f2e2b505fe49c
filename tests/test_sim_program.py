"""SimContext operations, shared state, locks, and the method protocol."""

from __future__ import annotations

import pytest

from repro.sim import (
    LockProtocolError,
    Program,
    UnknownMethodError,
    run_program,
)


def _run(methods, main="Main", shared=None, seed=0, **kwargs):
    program = Program(
        name="t", methods=methods, main=main, shared=shared or {}, **kwargs
    )
    return run_program(program, seed)


class TestSharedState:
    def test_read_write_roundtrip(self):
        def main(ctx):
            yield from ctx.write("x", 42)
            value = yield from ctx.read("x")
            assert value == 42
            return value

        result = _run({"Main": main})
        assert not result.failed

    def test_reads_and_writes_are_traced(self):
        def main(ctx):
            yield from ctx.write("x", 1)
            yield from ctx.read("x")
            return None

        trace = _run({"Main": main}).trace
        main_exec = next(trace.executions_of("Main"))
        kinds = [(a.obj, a.access_type.value) for a in main_exec.accesses]
        assert kinds == [("x", "W"), ("x", "R")]

    def test_peek_poke_untraced(self):
        def main(ctx):
            ctx.poke("hidden", 9)
            assert ctx.peek("hidden") == 9
            yield from ctx.work(1)
            return None

        trace = _run({"Main": main}).trace
        main_exec = next(trace.executions_of("Main"))
        assert main_exec.accesses == ()

    def test_initial_shared_not_mutated_across_runs(self):
        def main(ctx):
            value = yield from ctx.read("x")
            yield from ctx.write("x", value + 1)
            return value

        program = Program(
            name="iso", methods={"Main": main}, main="Main", shared={"x": 0}
        )
        first = run_program(program, 0).trace
        second = run_program(program, 1).trace
        assert next(first.executions_of("Main")).return_value == 0
        assert next(second.executions_of("Main")).return_value == 0

    def test_update_is_two_accesses(self):
        def main(ctx):
            yield from ctx.update("x", lambda v: v + 1)
            return None

        trace = _run({"Main": main}, shared={"x": 0}).trace
        accesses = list(trace.accesses())
        assert [a.access_type.value for a in accesses] == ["R", "W"]

    def test_update_calls_fn_once(self):
        """A side-effecting ``fn`` (here: one that draws from the thread
        RNG) runs once, so the value written is the value returned."""
        calls = []

        def bump(ctx):
            def fn(value):
                calls.append(value)
                return value + ctx.rand()

            return fn

        def main(ctx):
            returned = yield from ctx.update("x", bump(ctx))
            written = yield from ctx.read("x")
            return returned, written

        trace = _run({"Main": main}, shared={"x": 0}).trace
        returned, written = next(trace.executions_of("Main")).return_value
        assert calls == [0]
        assert returned == written


class TestLocks:
    def test_lock_mutual_exclusion(self):
        def main(ctx):
            yield from ctx.spawn("w", "Worker")
            yield from ctx.acquire("L")
            snapshot = ctx.peek("entered")
            yield from ctx.work(30)
            assert ctx.peek("entered") == snapshot  # worker kept out
            yield from ctx.release("L")
            yield from ctx.join("w")
            return "ok"

        def worker(ctx):
            yield from ctx.work(5)
            yield from ctx.acquire("L")
            ctx.poke("entered", True)
            yield from ctx.release("L")
            return None

        for seed in range(10):
            result = _run({"Main": main, "Worker": worker}, seed=seed)
            assert not result.failed

    def test_release_unheld_lock_is_harness_error(self):
        def main(ctx):
            yield from ctx.release("L")

        with pytest.raises(LockProtocolError):
            _run({"Main": main})

    def test_reacquire_is_harness_error(self):
        def main(ctx):
            yield from ctx.acquire("L")
            yield from ctx.acquire("L")

        with pytest.raises(LockProtocolError):
            _run({"Main": main})

    def test_lockset_recorded_on_accesses(self):
        def main(ctx):
            yield from ctx.acquire("L")
            yield from ctx.write("x", 1)
            yield from ctx.release("L")
            yield from ctx.write("x", 2)
            return None

        trace = _run({"Main": main}).trace
        first, second = list(trace.accesses())
        assert first.locks_held == frozenset({"L"})
        assert second.locks_held == frozenset()


class TestMethodProtocol:
    def test_nested_calls_traced_with_parents(self):
        def main(ctx):
            value = yield from ctx.call("Inner", 5)
            return value * 2

        def inner(ctx, x):
            yield from ctx.work(1)
            return x + 1

        trace = _run({"Main": main, "Inner": inner}).trace
        by_name = {m.method: m for m in trace.method_executions()}
        assert by_name["Main"].return_value == 12
        assert by_name["Inner"].return_value == 6
        assert by_name["Inner"].parent_call_id == by_name["Main"].call_id
        assert by_name["Main"].start_time < by_name["Inner"].start_time
        assert by_name["Inner"].end_time < by_name["Main"].end_time

    def test_occurrences_count_per_thread(self):
        def main(ctx):
            for _ in range(3):
                yield from ctx.call("Step")
            return None

        def step(ctx):
            yield from ctx.work(1)
            return None

        trace = _run({"Main": main, "Step": step}).trace
        occs = [m.occurrence for m in trace.executions_of("Step")]
        assert occs == [0, 1, 2]

    def test_exceptions_propagate_through_frames(self):
        def main(ctx):
            yield from ctx.call("Outer")
            return "unreachable"

        def outer(ctx):
            yield from ctx.call("Thrower")
            return "unreachable"

        def thrower(ctx):
            yield from ctx.work(1)
            ctx.throw("Kaboom")

        trace = _run({"Main": main, "Outer": outer, "Thrower": thrower}).trace
        assert trace.failed
        by_name = {m.method: m for m in trace.method_executions()}
        assert by_name["Thrower"].exception == "Kaboom"
        assert by_name["Outer"].exception == "Kaboom"
        assert by_name["Main"].exception == "Kaboom"
        # Unwinding preserves nesting order in end times.
        assert (
            by_name["Thrower"].end_time
            < by_name["Outer"].end_time
            < by_name["Main"].end_time
        )

    def test_simulated_try_except(self):
        from repro.sim import SimulatedError

        def main(ctx):
            try:
                yield from ctx.call("Thrower")
            except SimulatedError as exc:
                assert exc.kind == "Kaboom"
                return "recovered"

        def thrower(ctx):
            yield from ctx.work(1)
            ctx.throw("Kaboom")

        trace = _run({"Main": main, "Thrower": thrower}).trace
        assert not trace.failed
        assert next(trace.executions_of("Main")).return_value == "recovered"

    def test_unknown_method_rejected_at_call(self):
        def main(ctx):
            yield from ctx.call("Ghost")

        with pytest.raises(UnknownMethodError):
            _run({"Main": main})

    def test_unknown_main_rejected_at_construction(self):
        with pytest.raises(UnknownMethodError):
            Program(name="bad", methods={}, main="Ghost")

    def test_thread_local_rng_stable_across_interleavings(self):
        draws = set()

        def main(ctx):
            yield from ctx.spawn("noise", "Noise")
            yield from ctx.work(1)
            draws.add(ctx.randint(0, 10**9))
            yield from ctx.join("noise")
            return None

        def noise(ctx):
            yield from ctx.work(ctx.randint(1, 50))
            return None

        program = Program(
            name="rng", methods={"Main": main, "Noise": noise}, main="Main"
        )
        run_program(program, 42)
        run_program(program, 42)
        assert len(draws) == 1, "same seed+thread must draw identically"
