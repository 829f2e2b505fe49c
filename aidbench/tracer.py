"""Outside-in tracer: timing spans around public functions of ``repro``.

The program under test is not modified.  :meth:`Tracer.install` replaces
each target function with a wrapper that records a span (name, start,
end, parent) and, where a target has one, feeds a counter hook; every
module attribute that held the original object is patched, so names
imported into other modules (``repro.harness.session.discover``) are
traced too.  :meth:`Tracer.uninstall` restores the originals.

Spans are kept in memory and written out once, at the end of a run.
Parents come from a call stack, which is exact as long as every traced
call runs on one thread -- the benchmark uses the serial backend.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the tracer's list, -1 at the root
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def root_coverage(spans: list[Span]) -> float:
    """Wall time covered by at least one span."""
    return _covered(
        [(s.start, s.end) for s in spans if s.parent < 0],
        float("-inf"),
        float("inf"),
    )


#: A counter hook sees the call's arguments before the call and returns
#: a function that sees its result (or ``None`` to skip).
Hook = Callable[[tuple, dict], Optional[Callable[[object], None]]]


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and ``attr`` ("func" or
    "Class.method") locate it; ``span`` names its span (``None`` = count
    through ``hook`` only, no span)."""

    module: str
    attr: str
    span: Optional[str]
    hook: Optional[Callable[["Tracer"], Hook]] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        #: (owner, attribute name, original value) to put back
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        self.spans[index] = Span(span.name, span.start, self.clock(), span.parent)

    def wrap(self, fn: Callable, name: Optional[str], hook: Optional[Hook] = None):
        tracer = self

        def traced(*args, **kwargs):
            after = hook(args, kwargs) if hook is not None else None
            index = tracer._open(name) if name is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            hook = target.hook(self) if target.hook is not None else None
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self.wrap(raw.__func__, target.span, hook))
                else:
                    patched = self.wrap(raw, target.span, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(module, target.attr)
            patched = self.wrap(original, target.span, hook)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` (plus ``<span>.total_s``)
        summed over every recorded span."""
        totals: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.self_s"] += own
            totals[f"{span.name}.total_s"] += span.duration
        return dict(totals)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [
                        [s.name, s.start, s.end, s.parent] for s in self.spans
                    ],
                    "counters": dict(self.counters),
                }
            )
        )


# -- the fixed target list ---------------------------------------------


def _count_steps(tracer: Tracer) -> Hook:
    def hook(args, kwargs):
        def after(result):
            tracer.counters["sim.steps"] += result.steps

        return after

    return hook


def _count(name: str) -> Callable[[Tracer], Hook]:
    def factory(tracer: Tracer) -> Hook:
        def hook(args, kwargs):
            tracer.counters[name] += 1
            return None

        return hook

    return factory


def _engine_totals(tracer: Tracer) -> Hook:
    """``ExecutionEngine.finish``: add the engine's lifetime counters."""

    def hook(args, kwargs):
        stats = args[0].stats
        tracer.counters["exec.executed"] += stats.executed
        tracer.counters["exec.cached"] += stats.cached
        return None

    return hook


def _matrix_deltas(tracer: Tracer) -> Hook:
    """Sharded matrix evaluation: the change in its pair counters."""
    names = ("pair_evaluations", "pair_hits", "kernel_calls")

    def hook(args, kwargs):
        matrix = args[0]
        before = [getattr(matrix, n) for n in names]

        def after(result):
            for name, old in zip(names, before):
                tracer.counters[f"corpus.matrix.{name}"] += (
                    getattr(matrix, name) - old
                )

        return after

    return hook


def _explore_result(tracer: Tracer) -> Hook:
    def hook(args, kwargs):
        def after(result):
            tracer.counters["explore.executions"] += result.executions
            tracer.counters["explore.distinct_canonical"] += (
                result.distinct_canonical
            )
            tracer.counters["explore.pruned_equivalent"] += (
                result.pruned_equivalent
            )
            tracer.counters["explore.failures_found"] += len(result.failures)

        return after

    return hook


TARGETS: list[Target] = [
    Target("repro.sim.scheduler", "Simulator.run", "sim.run", _count_steps),
    Target(
        "repro.sim.schedule", "Schedule.canonical_signature",
        "sim.canonical_signature",
    ),
    Target("repro.core.extraction", "PredicateSuite.discover", "core.discover"),
    Target(
        "repro.core.extraction", "PredicateSuite.evaluate_all",
        "core.evaluate_all",
    ),
    Target("repro.core.acdag", "ACDag.build", "core.acdag.build"),
    Target("repro.core.acdag", "ACDag.merge", "core.acdag.merge"),
    Target("repro.core.variants", "discover", "core.interventions"),
    Target(
        "repro.exec.engine", "ExecutionEngine.note_round", None,
        _count("core.rounds"),
    ),
    Target("repro.exec.engine", "ExecutionEngine.dispatch", "exec.dispatch"),
    Target(
        "repro.exec.engine", "ExecutionEngine.finish", None, _engine_totals
    ),
    Target("repro.corpus.store", "TraceStore.ingest", "corpus.store.ingest"),
    Target("repro.corpus.store", "TraceStore.open", "corpus.store.open"),
    Target("repro.corpus.store", "TraceStore.save", "corpus.store.save"),
    Target(
        "repro.corpus.matrix", "ShardedEvalMatrix.evaluate_shards",
        "corpus.matrix.evaluate_shards", _matrix_deltas,
    ),
    # the warm path's entry point; one span name covers both
    Target(
        "repro.corpus.matrix", "ShardedEvalMatrix.evaluate_fingerprints",
        "corpus.matrix.evaluate_shards", _matrix_deltas,
    ),
    Target("repro.corpus.matrix", "ShardedEvalMatrix.save", "corpus.matrix.save"),
    Target(
        "repro.corpus.pipeline", "IncrementalPipeline.bootstrap",
        "corpus.pipeline.bootstrap",
    ),
    Target(
        "repro.corpus.pipeline", "IncrementalPipeline.ingest_batch",
        "corpus.pipeline.ingest_batch",
    ),
    Target(
        "repro.explore.driver", "ExplorationDriver.run", "explore.run",
        _explore_result,
    ),
    Target("repro.api.runner", "run", "api.run"),
]
