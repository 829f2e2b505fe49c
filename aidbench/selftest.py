"""Tests of the benchmark itself (no program run needed).

    python3 aidbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Runner, measure, summarize  # noqa: E402
from tracer import Span, Target, Tracer, root_coverage, self_times  # noqa: E402
from workloads import (  # noqa: E402
    OpResult,
    Stopwatch,
    Workload,
    path_problems,
    tail_percentile,
)


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SelfTime(unittest.TestCase):
    def toy(self):
        # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7].
        return [
            Span("A", 0.0, 10.0, -1),
            Span("B", 1.0, 4.0, 0),
            Span("C", 5.0, 9.0, 0),
            Span("D", 6.0, 7.0, 2),
        ]

    def test_self_time_of_a_nest(self):
        self.assertEqual(self_times(self.toy()), [3.0, 3.0, 3.0, 1.0])

    def test_self_times_and_unattributed_add_up_to_wall(self):
        spans = self.toy() + [Span("E", 11.0, 11.5, -1)]
        wall = 12.0
        unattributed = wall - root_coverage(spans)
        self.assertEqual(unattributed, 1.5)
        self.assertEqual(sum(self_times(spans)) + unattributed, wall)

    def test_overlapping_children_count_once(self):
        spans = [
            Span("A", 0.0, 10.0, -1),
            Span("B", 2.0, 6.0, 0),
            Span("C", 4.0, 8.0, 0),
            Span("D", 9.0, 12.0, 0),  # runs past its parent
        ]
        self.assertEqual(self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_wrapped_calls_nest_by_call_stack(self):
        tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))

        def inner():
            return 7

        traced_inner = tracer.wrap(inner, "inner")
        traced_outer = tracer.wrap(lambda: traced_inner(), "outer")
        self.assertEqual(traced_outer(), 7)
        self.assertEqual(
            tracer.spans,
            [Span("outer", 0.0, 4.0, -1), Span("inner", 1.0, 3.0, 0)],
        )
        totals = tracer.layer_totals()
        self.assertEqual(totals["outer.self_s"], 2.0)
        self.assertEqual(totals["inner.self_s"], 2.0)
        self.assertEqual(totals["outer.calls"], 1)


class Install(unittest.TestCase):
    def test_imported_names_are_wrapped_and_restored(self):
        home = types.ModuleType("repro_selftest_home")
        user = types.ModuleType("repro_selftest_user")

        def work(x):
            return x + 1

        home.work = work
        user.work = work  # as ``from home import work`` would bind it
        sys.modules[home.__name__] = home
        sys.modules[user.__name__] = user
        try:
            tracer = Tracer()
            tracer.install([Target(home.__name__, "work", "toy.work")])
            self.assertEqual(user.work(1), 2)
            self.assertEqual(home.work(2), 3)
            self.assertEqual([s.name for s in tracer.spans], ["toy.work"] * 2)
            tracer.uninstall()
            self.assertIs(home.work, work)
            self.assertIs(user.work, work)
        finally:
            del sys.modules[home.__name__], sys.modules[user.__name__]

    def test_classmethods_stay_classmethods(self):
        module = types.ModuleType("repro_selftest_cls")

        class Box:
            @classmethod
            def make(cls):
                return cls()

        module.Box = Box
        sys.modules[module.__name__] = module
        try:
            tracer = Tracer()
            tracer.install([Target(module.__name__, "Box.make", "toy.make")])
            self.assertIsInstance(Box.make(), Box)
            tracer.uninstall()
            self.assertIsInstance(Box.__dict__["make"], classmethod)
            self.assertEqual(len(tracer.spans), 1)
        finally:
            del sys.modules[module.__name__]


class Tampered(Workload):
    """Returns the same output twice, then a tampered one."""

    name = "tampered"

    def __init__(self):
        super().__init__(seed=0, workdir=Path("."))
        self.calls = 0

    def groups(self):
        return [["op"]]

    def run(self, op, watch):
        self.calls += 1
        with watch.lap() as lap:
            pass
        output = "tampered" if self.calls == 3 else "genuine"
        return OpResult(
            kind="toy", key=op, wall_s=lap.wall_s, items=1, digest=output
        )


class FailedOperations(unittest.TestCase):
    def test_tampered_repeat_is_a_failed_operation(self):
        workload = Tampered()
        runner = Runner(workload)
        for _ in range(3):
            runner.run_op("op", Stopwatch())
        self.assertEqual(summarize(runner.results), (3, 1))
        self.assertTrue(runner.results[2].problems)

    def test_tampered_causal_path_is_a_problem(self):
        report = types.SimpleNamespace(causal_path=["P:a", "P:b", "F"])
        self.assertEqual(path_problems(report, ("a", "b")), [])
        tampered = types.SimpleNamespace(causal_path=["P:b", "P:a", "F"])
        self.assertTrue(path_problems(tampered, ("a", "b")))

    def test_raising_operation_is_a_failed_operation(self):
        class Raises(Tampered):
            def run(self, op, watch):
                raise RuntimeError("boom")

        runner = Runner(Raises())
        with contextlib.redirect_stderr(io.StringIO()):
            result = runner.run_op("op", Stopwatch())
        self.assertIn("boom", result.problems[0])

    def test_measure_counts_every_operation(self):
        runner, timed = measure(Tampered(), seconds=0.0)
        # one timed pass, then one off-clock repeat: both genuine
        self.assertEqual(len(timed), 1)
        self.assertEqual(summarize(runner.results), (2, 0))


class Percentiles(unittest.TestCase):
    def test_tail_leaves_ten_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50)
        self.assertEqual(tail_percentile(36), 72)
        self.assertEqual(tail_percentile(1000), 99)


if __name__ == "__main__":
    unittest.main()
