"""The benchmark's workloads.

Each workload is a closed loop with one client: an operation starts when
the previous one ends.  A workload builds its inputs from the seed in
``setup`` (off the clock) and lists a fixed *pass* of operations, split
into groups: a group is the unit a traced run repeats untraced and
traced (one session, one corpus cycle, one exploration).  Every
operation has a *kind* (a case study, a corpus step, an explored
program); a *cycle* is one operation of each kind.  Only the calls into
``repro`` are timed, each inside a ``watch.lap()``; correctness checks
run after the lap.

``repro`` is imported lazily, so this module (and the tests of the
benchmark) import without the program on the path.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

#: debug-live debugs every case study at this many seeds per pass
DEBUG_SEEDS_PER_PASS = 6
#: explore-fuzz explores every program at this many seeds per pass
EXPLORE_SEEDS_PER_PASS = 3
EXPLORE_PROGRAMS = ("kafka", "healthtelemetry")
EXPLORE_BUDGET = 300
#: corpus-analyze: kafka, this many traces of each label
CORPUS_PROGRAM = "kafka"
CORPUS_PER_LABEL = 200


def digest(payload: object) -> str:
    """sha256 of a JSON payload's canonical bytes."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile whose nearest-rank value leaves at least
    ten samples beyond it; ``None`` below the median (``n < 20``)."""
    p = (100 * (n - 10)) // n if n > 10 else 0
    return p if p >= 50 else None


@dataclass
class Lap:
    wall_s: float = 0.0


class Stopwatch:
    """Times the calls into ``repro``; with a tracer, each lap installs
    the tracer's wrappers just before the clock starts and removes them
    just after it stops, so spans only cover timed work."""

    def __init__(self, tracer=None, targets=()) -> None:
        self.tracer = tracer
        self.targets = list(targets)
        #: summed wall of every lap
        self.total_s = 0.0

    @contextmanager
    def lap(self):
        lap = Lap()
        if self.tracer is not None:
            self.tracer.install(self.targets)
        start = time.perf_counter()
        try:
            yield lap
        finally:
            lap.wall_s = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()
            self.total_s += lap.wall_s


@dataclass
class OpResult:
    """One operation: its timed wall, its work, and what went wrong."""

    kind: str
    #: identity of the inputs; every repeat of a key must give ``digest``
    key: str
    wall_s: float = 0.0
    items: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    #: workload-specific raw numbers, folded by ``Workload.details``
    detail: dict = field(default_factory=dict)


def cycle_p50(results: list[OpResult]) -> float:
    """Median-based time of one cycle: the sum over kinds of the median
    wall of that kind's operations."""
    walls: dict[str, list[float]] = {}
    for result in results:
        walls.setdefault(result.kind, []).append(result.wall_s)
    return sum(median(values) for values in walls.values())


def path_problems(report, markers) -> list[str]:
    """Does the causal path match the ground-truth markers, in order?"""
    path = report.causal_path
    if len(path) - 1 != len(markers) or not all(
        marker in pid for marker, pid in zip(markers, path)
    ):
        return [f"causal path {path} does not match markers {list(markers)}"]
    return []


class Workload:
    name = ""
    #: what a traced run normalizes the layer metrics by
    group = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs from the seed; may run several times."""

    def groups(self) -> list[list]:
        raise NotImplementedError

    def run(self, op, watch) -> OpResult:
        raise NotImplementedError

    def details(self, results: list[OpResult]) -> dict[str, tuple]:
        """The workload's own metrics: name -> (value, unit[, note])."""
        return {}

    def layer_extra(self, results: list[OpResult]) -> dict[str, float]:
        """Per-group layer numbers measured from outside the spans."""
        return {}


# -- debug-live ---------------------------------------------------------


class DebugLive(Workload):
    """All six case studies at paper defaults through ``repro.run``."""

    name = "debug-live"
    group = "session"

    def setup(self) -> None:
        from repro.api.spec import (
            AnalysisSpec,
            CollectionSpec,
            EngineSpec,
            RunSpec,
            WorkloadSpec,
        )
        from repro.harness.experiments import CASE_STUDY_ORDER
        from repro.workloads import REGISTRY

        self.cases = {name: REGISTRY.build(name) for name in CASE_STUDY_ORDER}
        self.specs = {}
        for k in range(DEBUG_SEEDS_PER_PASS):
            run_seed = self.seed * DEBUG_SEEDS_PER_PASS + k
            for name in CASE_STUDY_ORDER:
                self.specs[name, k] = RunSpec(
                    workload=WorkloadSpec(name),
                    collection=CollectionSpec(start_seed=1000 * run_seed),
                    analysis=AnalysisSpec(approach="AID", rng_seed=run_seed),
                    engine=EngineSpec(backend="serial", jobs=1),
                )

    def groups(self) -> list[list]:
        return [
            [(name, k)]
            for k in range(DEBUG_SEEDS_PER_PASS)
            for name in self.cases
        ]

    def run(self, op, watch) -> OpResult:
        import repro

        name, k = op
        with watch.lap() as lap:
            report = repro.run(self.specs[name, k])
        payload = report.to_dict()
        problems = path_problems(report, self.cases[name].expected_path_markers)
        problems += repro.validate_report_dict(payload)
        return OpResult(
            kind=name,
            key=f"{name}#{k}",
            wall_s=lap.wall_s,
            items=1,
            digest=digest(payload),
            problems=problems,
            detail={"rounds": report.n_rounds},
        )

    def details(self, results):
        times = [r.wall_s for r in results]
        rounds = [r.detail["rounds"] for r in results if "rounds" in r.detail]
        out = {
            "sessions_per_s": (len(times) / sum(times), "1/s"),
            "session_p50_s": (median(times), "s"),
        }
        p = tail_percentile(len(times))
        if p is not None:
            out["session_tail_s"] = (
                percentile(times, p), "s", f"p{p} of {len(times)} sessions"
            )
        if rounds:
            out["rounds_per_session"] = (sum(rounds) / len(rounds), "count")
        return out


# -- corpus-analyze -----------------------------------------------------


class CorpusAnalyze(Workload):
    """Kafka traces collected off the clock; each cycle ingests them
    into a fresh store at the default shard width, analyzes it cold,
    then warm."""

    name = "corpus-analyze"
    group = "cycle"

    def setup(self) -> None:
        from repro.harness.runner import collect
        from repro.workloads import REGISTRY

        program = REGISTRY.build(CORPUS_PROGRAM).program
        corpus = collect(
            program,
            n_success=CORPUS_PER_LABEL,
            n_fail=CORPUS_PER_LABEL,
            start_seed=10_000 * self.seed,
        )
        self.traces = corpus.successes + corpus.failures
        self.root = self.workdir / "corpus"
        self.cold = None

    def groups(self) -> list[list]:
        return [["ingest", "cold", "warm"]]

    def run(self, op, watch) -> OpResult:
        result = OpResult(kind=op, key=op, items=len(self.traces))
        if op == "ingest":
            self.ingest(watch, result)
            return result
        result.digest, fresh, result.wall_s = self.analyze(watch, result)
        result.detail = {"pair_evaluations": fresh}
        if op == "cold":
            self.cold = result.digest
            result.detail["disk_bytes"] = dir_bytes(self.root)
            if not fresh:
                result.problems.append("cold analyze evaluated nothing")
        else:
            if result.digest != self.cold:
                result.problems.append("warm report differs from the cold one")
            if fresh != 0:
                result.problems.append(
                    f"warm analyze made {fresh} fresh evaluations"
                )
        return result

    def ingest(self, watch, result: OpResult) -> None:
        from repro.corpus import TraceStore

        shutil.rmtree(self.root, ignore_errors=True)
        store = TraceStore.init(self.root)
        with watch.lap() as lap:
            for trace in self.traces:
                store.ingest(trace)
            store.save()
        result.wall_s = lap.wall_s
        result.digest = digest(sorted(store.entries))
        if len(store) != len(self.traces):
            result.problems.append(
                f"stored {len(store)} of {len(self.traces)} traces"
            )

    def analyze(self, watch, result: OpResult):
        """One ``corpus analyze`` (an incremental RunSpec); returns the
        report digest, the fresh pair evaluations and the lap wall."""
        import repro
        from repro.api.spec import CorpusSpec, EngineSpec, RunSpec

        spec = RunSpec(
            corpus=CorpusSpec(dir=str(self.root), mode="incremental"),
            engine=EngineSpec(backend="serial", jobs=1),
        )
        events = []
        with watch.lap() as lap:
            report = repro.run(spec, observers=[events.append])
        payload = report.to_dict()
        result.problems += repro.validate_report_dict(payload)
        fresh = [e.fresh for e in events if e.kind == "logs-evaluated"]
        if len(fresh) != 1:
            result.problems.append(f"expected one logs-evaluated, got {fresh}")
        return digest(payload), (fresh[0] if fresh else None), lap.wall_s

    def details(self, results):
        def walls(kind):
            return [r.wall_s for r in results if r.kind == kind]

        out = {}
        if walls("ingest"):
            out["ingest_traces_per_s"] = (
                len(self.traces) / median(walls("ingest")), "1/s"
            )
        if walls("cold"):
            out["analyze_cold_s"] = (median(walls("cold")), "s")
            out["corpus_bytes_per_trace"] = (
                self.disk_bytes(results) / len(self.traces), "B"
            )
        if walls("warm"):
            out["analyze_warm_s"] = (median(walls("warm")), "s")
            out["warm_pair_evaluations"] = (
                max(r.detail["pair_evaluations"] or 0
                    for r in results if r.kind == "warm"),
                "count",
            )
        return out

    @staticmethod
    def disk_bytes(results) -> int:
        return next(
            r.detail["disk_bytes"] for r in results if "disk_bytes" in r.detail
        )

    def layer_extra(self, results):
        if not any("disk_bytes" in r.detail for r in results):
            return {}
        return {"corpus.disk_bytes": self.disk_bytes(results)}


# -- explore-fuzz -------------------------------------------------------


class ExploreFuzz(Workload):
    """Coverage-guided schedule fuzzing with corpus ingestion."""

    name = "explore-fuzz"
    group = "exploration"

    def setup(self) -> None:
        from repro.explore.driver import ExploreConfig
        from repro.workloads import REGISTRY

        self.programs = {
            name: REGISTRY.build(name).program for name in EXPLORE_PROGRAMS
        }
        self.configs = {
            k: ExploreConfig(
                budget=EXPLORE_BUDGET,
                strategy="random",
                start_seed=1000 * (self.seed * EXPLORE_SEEDS_PER_PASS + k),
                jobs=1,
                backend="serial",
            )
            for k in range(EXPLORE_SEEDS_PER_PASS)
        }

    def groups(self) -> list[list]:
        return [
            [(name, k)]
            for k in range(EXPLORE_SEEDS_PER_PASS)
            for name in self.programs
        ]

    def run(self, op, watch) -> OpResult:
        from repro.corpus import TraceStore
        from repro.explore.driver import explore

        name, k = op
        root = self.workdir / f"explore-{name}"
        shutil.rmtree(root, ignore_errors=True)
        store = TraceStore.init(root)
        with watch.lap() as lap:
            found = explore(self.programs[name], self.configs[k], store=store)
        result = OpResult(
            kind=name,
            key=f"{name}#{k}",
            wall_s=lap.wall_s,
            items=found.executions,
            digest=digest(found.to_dict()),
            detail={"failures_found": len(found.failures)},
        )
        if not found.all_replays_verified:
            result.problems.append("a replay did not verify")
        if not found.failures:
            result.problems.append("no failure found")
        return result

    def details(self, results):
        found = [r.detail["failures_found"] for r in results]
        return {
            "explore_execs_per_s": (
                sum(r.items for r in results) / sum(r.wall_s for r in results),
                "1/s",
            ),
            "failures_found": (
                sum(found) / len(found), "count", "per budget-300 exploration"
            ),
        }


WORKLOADS = {cls.name: cls for cls in (DebugLive, CorpusAnalyze, ExploreFuzz)}
