"""Per-layer spans and counts, taken from outside the program.

A ``Tracer`` replaces each traced sspkit callable at the name its callers
look it up by (a module global or a class attribute) with a wrapper that
opens a span on entry and closes it on exit. A span's self time is its
duration minus the time covered by the spans opened inside it, so each
layer's time excludes the layers it calls. The program's modules are not
edited; ``Tracer.restore`` puts the original callables back.

The per-state callables (``ReducedModel.applicable``,
``ReducedModel.reduced_successors``, ``RelaxedTask.evaluate`` and
``ff_bellman_update``) run hundreds of thousands of times per operation,
so their spans are folded into per-layer totals as they close; only the
spans of the coarser callables are kept as (name, start, end, parent)
records.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from math import prod

TIME_METRICS = (
    "ppddl.parse_s", "grounding.ground_s", "reduction.reduce_s",
    "reduction.successors_s", "reduction.applicable_s", "detplan.h_s",
    "detplan.plan_s", "solver.solve_s", "executor.round_s",
    "learner.learn_s",
)

COUNT_METRICS = (
    "grounding.bindings", "grounding.actions",
    "reduction.successor_calls", "reduction.successor_keys",
    "reduction.applicable_calls",
    "detplan.h_calls", "detplan.h_states",
    "detplan.plan_calls", "detplan.plan_expansions", "detplan.plan_failures",
    "solver.solves", "solver.sweeps", "solver.expansions",
    "solver.bellman_updates", "solver.table_states",
    "executor.rounds", "executor.actions", "executor.replans",
    "learner.candidates",
)


class _Frame:
    __slots__ = ("child_s", "record")

    def __init__(self, record: int | None):
        self.child_s = 0.0  # time covered by the spans opened inside
        self.record = record  # index of the nearest kept span at or above


class Tracer:
    """Span stack, self-time totals and counts for one traced process."""

    def __init__(self):
        self._stack = [_Frame(None)]
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[list] = []  # [name, start, end, parent index]
        # objects whose id() keys a distinct-key set; held so that no id
        # is reused by a new object while its keys are still counted
        self._alive: dict[int, object] = {}
        self._successor_keys: set[tuple] = set()
        self._h_states: set[tuple[int, int]] = set()
        self._sessions: dict[int, object] = {}

    def take(self) -> tuple[dict[str, float], list[list]]:
        """Return the metrics and kept spans gathered since the last call,
        then start afresh."""
        metrics: dict[str, float] = {name: 0 for name in COUNT_METRICS}
        metrics.update(self.counts)
        metrics["reduction.successor_keys"] = len(self._successor_keys)
        metrics["detplan.h_states"] = len(self._h_states)
        metrics["solver.table_states"] = sum(
            len(s.tables.v) for s in self._sessions.values())
        for name in TIME_METRICS:
            metrics[name] = self.self_s.get(name, 0.0)
        spans = self.spans
        self._reset()
        return metrics, spans

    def patch(self, owner, attr: str, time_metric: str, *,
              count_metric: str | None = None, after=None,
              keep_spans: bool = True) -> None:
        """Wrap ``owner.attr``; ``after(args, result)`` runs on return."""
        fn = getattr(owner, attr)
        stack = self._stack
        clock = time.perf_counter
        span_name = f"{getattr(owner, '__name__', owner)}.{attr}"

        def traced(*args, **kwargs):
            parent = stack[-1]
            start = clock()
            if keep_spans:
                index = len(self.spans)
                self.spans.append([span_name, start, None, parent.record])
                frame = _Frame(index)
            else:
                frame = _Frame(parent.record)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[time_metric] += duration - frame.child_s
                parent.child_s += duration
                if keep_spans:
                    self.spans[index][2] = end
            if count_metric is not None:
                self.counts[count_metric] += 1
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # ── counting hooks ───────────────────────────────────────────────────

    def _hold(self, obj) -> int:
        self._alive[id(obj)] = obj
        return id(obj)

    def after_ground(self, args, grounded) -> None:
        schema, problem = args[0], args[1]
        self.counts["grounding.bindings"] += binding_product(schema, problem)
        self.counts["grounding.actions"] += len(grounded.actions)

    def after_successors(self, args, _result) -> None:
        model, aug, action_id = args
        self._successor_keys.add(
            (self._hold(model), aug.state.bits, aug.j, action_id))

    def after_evaluate(self, args, _result) -> None:
        task, bits = args
        self._h_states.add((self._hold(task), bits))

    def after_plan(self, _args, result) -> None:
        self.counts["detplan.plan_expansions"] += result.expansions
        if not result.found:
            self.counts["detplan.plan_failures"] += 1

    def after_solve(self, _args, result) -> None:
        _, report = result
        self.counts["solver.sweeps"] += report.sweeps
        self.counts["solver.expansions"] += report.expansions

    def after_round(self, args, report) -> None:
        session = args[0]
        self._sessions[id(session)] = session
        self.counts["executor.actions"] += report.actions_taken
        self.counts["executor.replans"] += report.replans

    def after_learn(self, _args, result) -> None:
        _, ranked = result
        self.counts["learner.candidates"] += len(ranked)


def binding_product(schema, problem) -> int:
    """Candidate bindings of every action schema: the product, over its
    parameters, of the number of objects of each parameter's type."""
    total = 0
    for action in schema.action_schemas:
        total += prod(
            sum(1 for _, otype in problem.objects
                if schema.is_subtype(otype, ptype))
            for _, ptype in action.parameters)
    return total


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of sspkit at the names it is called by."""
    from sspkit import (detplan, executor, grounding, learner, ppddl,
                        reduction, solver)

    t = tracer
    t.patch(ppddl, "parse_domain", "ppddl.parse_s")
    t.patch(ppddl, "parse_problem", "ppddl.parse_s")
    for owner in (grounding, learner):
        t.patch(owner, "ground", "grounding.ground_s", after=t.after_ground)
    for owner in (reduction, executor):
        t.patch(owner, "make_reduction", "reduction.reduce_s")
    t.patch(reduction.ReducedModel, "applicable", "reduction.applicable_s",
            count_metric="reduction.applicable_calls", keep_spans=False)
    t.patch(reduction.ReducedModel, "reduced_successors",
            "reduction.successors_s",
            count_metric="reduction.successor_calls",
            after=t.after_successors, keep_spans=False)
    t.patch(detplan.RelaxedTask, "evaluate", "detplan.h_s",
            count_metric="detplan.h_calls", after=t.after_evaluate,
            keep_spans=False)
    t.patch(solver, "solve_deterministic", "detplan.plan_s",
            count_metric="detplan.plan_calls", after=t.after_plan)
    t.patch(executor, "ff_lao_star", "solver.solve_s",
            count_metric="solver.solves", after=t.after_solve)
    t.patch(solver, "ff_bellman_update", "solver.solve_s",
            count_metric="solver.bellman_updates", keep_spans=False)
    t.patch(executor.ReplanSession, "run_round", "executor.round_s",
            count_metric="executor.rounds", after=t.after_round)
    for owner in (executor, learner):
        t.patch(owner, "monte_carlo_evaluate", "executor.round_s")
    t.patch(learner, "learning_det", "learner.learn_s", after=t.after_learn)
