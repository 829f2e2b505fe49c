"""The seeded nondeterministic discrete-event scheduler.

Threads are cooperative generators.  Execution is *duration-aware*:
every primitive action stamps its effects at the current virtual time
and then keeps its thread busy for the action's cost, so a thread inside
``work(200)`` genuinely lets other threads run for 200 ticks — exactly
like a real sleeping/computing thread.  At each step the scheduler asks
its :class:`~repro.sim.schedule.SchedulerStrategy` which of the
threads that are ready *now* runs next (the default strategy picks
uniformly at random from a seeded RNG); when none are ready, virtual
time jumps to the next ready instant.

The tie-breaking among simultaneously-ready threads is the *only*
source of nondeterminism in the simulator, and every decision is
recorded on the result as a replayable
:class:`~repro.sim.schedule.Schedule`, so:

* the same ``(program, interventions, seed)`` triple always reproduces
  the identical trace — interventions are diffable — and the same
  ``(program, interventions, schedule)`` triple replays it exactly;
* sweeping seeds reproduces the intermittent behaviour AID targets
  (some interleavings fail, most succeed — flaky by construction);
* every executed action gets a distinct timestamp (the clock advances by
  one serialization tick per action), which keeps temporal-precedence
  comparisons strict.

Failure modes recorded on the trace:

* ``crash`` — a :class:`~repro.sim.errors.SimulatedError` escaped a
  thread's outermost frame (any thread: an unhandled exception in a
  worker thread takes the process down, as in the paper's Kafka and
  Npgsql case studies);
* ``deadlock`` — no thread is runnable but some are blocked;
* ``hang`` — the step budget was exhausted (models unresponsiveness /
  test timeout).

Cost of a step
--------------
AID re-runs the program many times per intervention, so the step is the
hot path of the whole system and does no work nobody reads:

* the runnable and blocked threads are kept as two lists in spawn order
  (the ``threads`` dict's insertion order, so no sort) and rebuilt only
  when a thread spawns, blocks, wakes, finishes or crashes;
* wake-up conditions are checked only for blocked threads, and only
  while there are any — a linear scan, not per-resource wait queues:
  measured, it is about 1% of a debug session;
* each step builds one :class:`~repro.sim.schedule.SchedulePoint` whose
  candidates are the ready threads in spawn order, makes exactly one
  strategy call (singletons included), and finds the chosen thread by
  name; a pick outside the ready set is a ``ScheduleError``;
* the result records the ``(action, thread)`` pair each decision ran;
  footprints, which only exploration reads, are derived from them on
  access (:attr:`~repro.sim.tracing.ExecutionResult.footprints`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import SimulatedError
from .faults import Intervention, InterventionSet
from .program import Action, Program, SimContext, SleepAction, SpawnAction
from .runtime import Blocked, Runtime
from .schedule import (
    RandomStrategy,
    Schedule,
    ScheduleError,
    SchedulePoint,
    SchedulerStrategy,
)
from .tracing import ExecutionResult, ExecutionTrace, FailureInfo

DEFAULT_MAX_STEPS = 50_000


class ThreadStatus(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    CRASHED = "crashed"


@dataclass(slots=True)
class _Thread:
    name: str
    gen: object  # generator of Actions
    ctx: SimContext
    status: ThreadStatus = ThreadStatus.RUNNABLE
    pending_send: object = None
    pending_action: object = None  # action to retry after unblocking
    blocked_on: Optional[Blocked] = None
    ready_at: int = 0  # busy until this virtual time (discrete-event)


def _partition(threads: dict) -> tuple[list[_Thread], list[_Thread]]:
    """The runnable and the blocked threads, each in spawn order."""
    ready = [t for t in threads.values() if t.status is ThreadStatus.RUNNABLE]
    blocked = [t for t in threads.values() if t.status is ThreadStatus.BLOCKED]
    return ready, blocked


@dataclass
class Simulator:
    """Executes a :class:`~repro.sim.program.Program` under a seed.

    Parameters
    ----------
    program:
        The simulated application.
    max_steps:
        Hang budget; exceeding it marks the execution as failed with the
        ``hang`` signature.
    strategy_factory:
        Builds the per-run :class:`~repro.sim.schedule.SchedulerStrategy`
        from the seed.  ``None`` (the default) uses the historical
        seeded-uniform :class:`~repro.sim.schedule.RandomStrategy` —
        byte-identical traces for every existing
        ``(program, interventions, seed)`` triple.
    """

    program: Program
    max_steps: int = DEFAULT_MAX_STEPS
    strategy_factory: Optional[Callable[[int], SchedulerStrategy]] = None

    def run(
        self,
        seed: int,
        interventions: tuple[Intervention, ...] | InterventionSet = (),
        strategy: Optional[SchedulerStrategy] = None,
    ) -> ExecutionResult:
        """Run one execution and return its trace.

        ``strategy`` overrides the simulator's factory for this run
        (replay and exploration drivers pass one explicitly).
        """
        if not isinstance(interventions, InterventionSet):
            interventions = InterventionSet(tuple(interventions))
        if strategy is None:
            strategy = (
                self.strategy_factory(seed)
                if self.strategy_factory is not None
                else RandomStrategy(seed)
            )
        trace = ExecutionTrace(self.program.name, seed)
        runtime = Runtime(self.program, interventions, seed, trace)
        clock = runtime.clock
        decisions: list[str] = []
        actions: list[tuple] = []  # (action run, thread) per decision

        threads: dict[str, _Thread] = {}  # insertion order = spawn order

        def start_thread(name: str, method: str, args: tuple, parent: Optional[str]):
            if name in threads:
                raise ValueError(f"duplicate thread name {name!r}")
            runtime.register_thread(name, spawned_by=parent)
            ctx = SimContext(runtime, name)
            gen = ctx.call(method, *args)
            threads[name] = _Thread(
                name=name, gen=gen, ctx=ctx, ready_at=clock.now
            )

        start_thread("main", self.program.main, (), parent=None)

        # Rebuilt only when a thread spawns, blocks, wakes, finishes or
        # crashes; every other step leaves both lists as they are.
        ready, blocked = _partition(threads)
        steps = 0
        max_steps = self.max_steps
        choose = strategy.choose
        step = self._step
        RUNNABLE = ThreadStatus.RUNNABLE
        while True:
            if blocked and self._unblock(blocked, runtime):
                ready, blocked = _partition(threads)
            if not ready:
                if blocked:
                    trace.record_failure(
                        FailureInfo(
                            mode="deadlock",
                            exception=None,
                            method=runtime.current_method(blocked[0].name),
                            thread=blocked[0].name,
                            time=clock.now,
                        )
                    )
                break  # all done, or deadlocked
            if steps >= max_steps:
                trace.record_failure(
                    FailureInfo(
                        mode="hang",
                        exception=None,
                        method=None,
                        thread=None,
                        time=clock.now,
                    )
                )
                break
            steps += 1

            # Discrete-event step: one serialization tick, then run the
            # strategy's pick among threads whose busy period elapsed —
            # or, when none has, jump to the earliest instant one does.
            execute_at = clock.now + 1
            candidates = tuple([t.name for t in ready if t.ready_at <= execute_at])
            if not candidates:
                execute_at = min(t.ready_at for t in ready)
                candidates = tuple(
                    [t.name for t in ready if t.ready_at <= execute_at]
                )
            clock.now = execute_at
            point = SchedulePoint(
                index=len(decisions), time=execute_at, candidates=candidates
            )
            chosen = choose(point)
            if chosen not in candidates:
                raise ScheduleError(
                    f"strategy chose {chosen!r}, not in the ready set "
                    f"{point.candidates} at decision {point.index}"
                )
            thread = threads[chosen]
            decisions.append(chosen)
            n_threads = len(threads)
            actions.append((step(thread, runtime, trace, start_thread), chosen))
            if thread.status is not RUNNABLE or len(threads) != n_threads:
                ready, blocked = _partition(threads)

        for t in threads.values():
            if t.status not in (ThreadStatus.DONE, ThreadStatus.CRASHED):
                t.gen.close()
                runtime.abort_thread_calls(t.name, "Unfinished")
        trace.end_time = clock.now
        return ExecutionResult(
            trace=trace,
            steps=steps,
            schedule=Schedule(
                program=self.program.name,
                seed=seed,
                decisions=tuple(decisions),
            ),
            actions=tuple(actions),
        )

    # -- internals -------------------------------------------------------

    def _step(self, thread, runtime, trace, start_thread) -> Optional[Action]:
        """Advance one thread by one primitive action; returns the action
        (``None`` when the thread finished or crashed instead), from
        which :attr:`ExecutionResult.footprints` derives the decision's
        resource footprint."""
        try:
            if thread.pending_action is not None:
                action = thread.pending_action
                thread.pending_action = None
            else:
                action = thread.gen.send(thread.pending_send)
                thread.pending_send = None
        except StopIteration:
            thread.status = ThreadStatus.DONE
            runtime.release_all(thread.name)
            runtime.thread_finished(thread.name)
            return None
        except SimulatedError as exc:
            self._crash(thread, exc, runtime, trace)
            return None

        if action.__class__ is SpawnAction:
            start_thread(action.thread, action.method, action.args, thread.name)

        result, blocked = runtime.perform(thread.name, action)
        if blocked is not None:
            thread.status = ThreadStatus.BLOCKED
            thread.blocked_on = blocked
            thread.pending_action = action
        else:
            thread.pending_send = result
            # The thread stays busy for the action's cost (a sleep's
            # ticks, one tick otherwise); its next action executes no
            # earlier than ready_at.
            thread.ready_at = runtime.clock.now + (
                action.ticks if action.__class__ is SleepAction else 1
            )
        return action

    def _crash(self, thread, exc: SimulatedError, runtime, trace) -> None:
        thread.status = ThreadStatus.CRASHED
        # The frames usually unwound already (ctx.call closes them as the
        # exception propagates), so recover the crash site — the
        # innermost frame that died with this exception — from the trace.
        method = runtime.current_method(thread.name)
        if method is None:
            dead = [
                m
                for m in trace.method_executions()
                if m.thread == thread.name and m.exception == exc.kind
            ]
            if dead:
                method = min(dead, key=lambda m: m.end_time).method
        runtime.abort_thread_calls(thread.name, exc.kind)
        runtime.release_all(thread.name)
        runtime.thread_finished(thread.name)
        trace.record_failure(
            FailureInfo(
                mode="crash",
                exception=exc.kind,
                method=method,
                thread=thread.name,
                time=runtime.clock.now,
            )
        )

    @staticmethod
    def _unblock(blocked: list[_Thread], runtime: Runtime) -> bool:
        """Move blocked threads whose wait condition cleared to runnable;
        returns whether any did."""
        woke = False
        for t in blocked:
            b = t.blocked_on
            if b.reason == "lock":
                clear = runtime.lock_owner.get(b.lock) is None
            elif b.reason == "join":
                clear = b.thread in runtime.finished_threads
            else:  # "event"
                clear = runtime.is_completed(b.selector)
            if clear:
                t.status = ThreadStatus.RUNNABLE
                t.blocked_on = None
                woke = True
        return woke


def run_program(
    program: Program,
    seed: int,
    interventions: tuple[Intervention, ...] = (),
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Convenience one-shot runner."""
    return Simulator(program, max_steps=max_steps).run(seed, interventions)
