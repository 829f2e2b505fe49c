"""End-to-end benchmark of AID: live debugging, corpus analysis and
schedule exploration, with an outside-in per-layer trace.

Usage (from the root of the repository)::

    python3 aidbench/run.py --workload debug-live --seed 0 --seconds 30 --trace 0
    python3 aidbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json`` with no instrumentation; ``--trace 1`` alternates
untraced and traced runs of the same operations and reports the
per-layer metrics.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Raw samples, the environment and (traced
runs) the spans are written under ``.aidbench/`` in the repository.
See ``aidbench/NOTES.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: start-up samples, each a fresh interpreter
STARTUP_REPEATS = 5
#: a seed never used while tuning the benchmark, for validating claims
HELD_OUT_SEED = 1009


#: what every workload needs, imported before set-up is timed
STARTUP_IMPORTS = (
    "repro",
    "repro.cli",
    "repro.explore.driver",
    "repro.harness.experiments",
)


def interpreter_wall_s(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return time.perf_counter() - start


def fresh_startup_s() -> float:
    """A fresh interpreter doing this benchmark's imports."""
    return interpreter_wall_s(
        "".join(f"import {module}\n" for module in STARTUP_IMPORTS)
    )


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the
    repository ("unknown" outside a git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import networkx

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def import_probe(repeats: int = 3) -> dict[str, float]:
    """Import costs in fresh interpreters, one at a time, each minus the
    empty interpreter's start-up (medians over ``repeats`` rounds)."""
    codes = {"empty": "pass", "repro_cli": "import repro.cli",
             "networkx": "import networkx"}
    walls: dict[str, list[float]] = {name: [] for name in codes}
    for _ in range(repeats):
        for name, code in codes.items():
            walls[name].append(interpreter_wall_s(code))
    empty = median(walls["empty"])
    return {
        "import.repro_cli_s": median(walls["repro_cli"]) - empty,
        "import.networkx_s": median(walls["networkx"]) - empty,
    }


class Runner:
    """Runs one workload's operations and keeps every result."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.results = []
        self.digests: dict[str, str] = {}

    def run_op(self, op, watch):
        from workloads import OpResult

        try:
            result = self.workload.run(op, watch)
        except Exception:
            traceback.print_exc()
            result = OpResult(kind=RAISED, key=str(op))
            result.problems.append(
                "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]
            )
        self.check_repeat(result)
        self.results.append(result)
        return result

    def check_repeat(self, result) -> None:
        if not result.digest:
            return
        first = self.digests.setdefault(result.key, result.digest)
        if first != result.digest:
            result.problems.append("output differs from an earlier repeat")

    def unrepeated_kinds(self) -> set[str]:
        seen: dict[str, int] = {}
        for result in self.results:
            seen[result.key] = seen.get(result.key, 0) + 1
        kinds = {r.kind for r in self.results}
        return kinds - {r.kind for r in self.results if seen[r.key] > 1}


#: the kind given to an operation that raised
RAISED = "raised"


def measure(workload, seconds: float):
    """Untraced: the pass's operations in order, cycling, until time is
    up and at least one pass is done.  Then, off the clock, one repeat
    for any kind that got none, so every kind's determinism is checked."""
    from workloads import Stopwatch

    runner = Runner(workload)
    groups = workload.groups()
    ops = [op for group in groups for op in group]
    start = time.perf_counter()
    done = 0
    while done < len(ops) or time.perf_counter() - start < seconds:
        runner.run_op(ops[done % len(ops)], Stopwatch())
        done += 1
    timed = list(runner.results)
    missing = runner.unrepeated_kinds()
    for group, results in zip(groups, _by_group(groups, timed)):
        kinds = {r.kind for r in results}
        if missing & kinds:
            missing -= kinds
            for op in group:
                runner.run_op(op, Stopwatch())
    return runner, timed


def _by_group(groups, results):
    """The first pass's results, split like ``groups``."""
    out, i = [], 0
    for group in groups:
        out.append(results[i:i + len(group)])
        i += len(group)
    return out


def measure_traced(workload, seconds: float):
    """Traced: each group runs untraced, then traced, until time is up."""
    from tracer import TARGETS, Tracer
    from workloads import Stopwatch

    runner = Runner(workload)
    tracer = Tracer()
    plain, traced = Stopwatch(), Stopwatch(tracer, TARGETS)
    groups = workload.groups()
    plain_results, traced_results = [], []
    start = time.perf_counter()
    n_groups = 0
    while n_groups == 0 or time.perf_counter() - start < seconds:
        group = groups[n_groups % len(groups)]
        plain_results += [runner.run_op(op, plain) for op in group]
        traced_results += [runner.run_op(op, traced) for op in group]
        n_groups += 1
    return runner, tracer, plain, traced, plain_results, traced_results, n_groups


def layer_metrics(workload, tracer, plain, traced, traced_results, n_groups):
    """Per-group layer numbers of a traced run."""
    from tracer import root_coverage

    totals = tracer.layer_totals()
    counters = dict(tracer.counters)
    values = {k: v / n_groups for k, v in totals.items()}
    values.update({k: v / n_groups for k, v in counters.items()})
    sim_time = totals.get("sim.run.total_s", 0.0)
    values["sim.steps_per_s"] = (
        counters.get("sim.steps", 0) / sim_time if sim_time else 0.0
    )
    executions = counters.get("explore.executions", 0)
    values["explore.sim_runs_per_execution"] = (
        totals.get("sim.run.calls", 0) / executions if executions else 0.0
    )
    values["trace.wall_s"] = traced.total_s / n_groups
    values["trace.unattributed_s"] = (
        traced.total_s - root_coverage(tracer.spans)
    ) / n_groups
    values["trace.overhead_ratio"] = traced.total_s / plain.total_s
    values.update(workload.layer_extra(traced_results))
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    values["trace.self_sum_residual_s"] = (
        self_sum + values["trace.unattributed_s"] - values["trace.wall_s"]
    )
    return values


def ok(results) -> list:
    """The results that can be timed: every operation that did not raise."""
    return [r for r in results if r.kind != RAISED]


def summarize(results) -> tuple[int, int]:
    return len(results), sum(1 for r in results if r.problems)


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    from workloads import WORKLOADS

    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            return out.returncode or 1
        final = json.loads(lines[-1])
        attempted += final["attempted"]
        failed += final["failed"]
        for key, value in final["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"aidbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS, cycle_p50

    args = parse_args(argv, list(WORKLOADS))
    if args.workload == "all":
        return run_all(args)

    for module in STARTUP_IMPORTS:
        importlib.import_module(module)
    startups = [fresh_startup_s() for _ in range(STARTUP_REPEATS)]
    declared = load_declaration()
    state = ROOT / ".aidbench"
    # names this run's files, so runs never overwrite each other's records
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    workdir = state / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "startup_samples_s": startups,
            "setup_samples_s": setups,
        }
        if args.trace:
            (runner, tracer, plain, traced, timed, traced_results,
             n_groups) = measure_traced(workload, args.seconds)
            values = layer_metrics(
                workload, tracer, plain, traced, traced_results, n_groups
            )
            values.update(import_probe())
            declared_metrics = declared["per_layer"]
            tracer.dump(state / "traces" / f"{tag}.json")
            record["traced_groups"] = n_groups
        else:
            runner, timed = measure(workload, args.seconds)
            values = {
                "setup_s": median(startups) + median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024,
                "cycle_p50_s": cycle_p50(ok(timed)),
            }
            declared_metrics = declared["end_to_end"]
        attempted, failed = summarize(runner.results)
        details = workload.details(ok(timed)) if ok(timed) else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"cpu_count {os.cpu_count()}"
          + (f"  (layer values per {workload.group})" if args.trace else ""))
    metrics = {}
    for spec in declared_metrics:
        value = float(values.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<40} {value:>14.6g} {spec['unit']}")
    for name, (value, unit, *note) in details.items():
        print(f"  {name:<40} {value:>14.6g} {unit}"
              + (f"  ({note[0]})" if note else ""))
    print(f"  {'error_rate':<40} {failed / attempted:>14.6g} "
          f"({failed} failed of {attempted} operations)")
    for result in runner.results:
        for problem in result.problems:
            print(f"aidbench: {result.key}: {problem}", file=sys.stderr)

    record.update(
        attempted=attempted,
        failed=failed,
        metrics={k: v["value"] for k, v in metrics.items()},
        all_values=values,
        details={k: list(v) for k, v in details.items()},
        operations=[
            {"kind": r.kind, "key": r.key, "wall_s": r.wall_s, "items": r.items,
             "problems": r.problems, "detail": r.detail}
            for r in runner.results
        ],
    )
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
