"""Heuristic search solver for single-primary reduced models.

The solver alternates depth-first post-order expansion sweeps with
convergence-test sweeps over the greedy policy graph. States at the
exception bound are solved by the built-in classical planner; the whole
returned plan is memoized (cheapest suffix kept) so those states act as
terminals afterwards. Dead ends, planner failures and all stored values
are bounded by the cost cap, which guarantees convergence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .detplan import solve_deterministic
from .errors import IterationLimitError
from .model import State
from .reduction import AugmentedState, ReducedModel

NOP = -1  # policy entry for goals, dead ends and planner failures
INF = math.inf


@dataclass
class SolverConfig:
    epsilon: float = 1e-3
    m_cap: float = 500.0
    heuristic: str = "relaxed-plan"  # relaxed-plan | zero
    subplanner_budget: int = 100_000
    subplanner_mode: str = "greedy"  # greedy | optimal
    max_sweeps: int = 1_000_000

    def __post_init__(self):
        # written so that nan fails too
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.m_cap > 0:
            raise ValueError("cost cap must be > 0")


@dataclass
class SolverTables:
    """Mutable per-solve state, reusable across replanning calls."""

    v: dict[AugmentedState, float] = field(default_factory=dict)
    pi: dict[AugmentedState, int] = field(default_factory=dict)
    # base states whose bound-level entry came from a sub-planner call
    # (plan member or recorded failure); never re-solved
    tail_solved: set[State] = field(default_factory=set)


@dataclass
class SolveReport:
    v_root: float = 0.0
    converged: bool = False
    expansions: int = 0
    sweeps: int = 0
    subplanner_calls: int = 0
    subplanner_failures: int = 0
    subplanner_timeouts: int = 0
    residual_trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def _heuristic(model: ReducedModel, cfg: SolverConfig, s: State) -> float:
    if cfg.heuristic == "zero":
        return 0.0
    h = model.problem.relaxed_task.evaluate(s.bits)[0]
    return min(h, cfg.m_cap)


def _value(tables: SolverTables, model: ReducedModel, cfg: SolverConfig,
           aug: AugmentedState) -> float:
    v = tables.v.get(aug)
    if v is None:
        v = 0.0 if model.is_goal(aug) else _heuristic(model, cfg, aug.state)
        tables.v[aug] = v
    return v


def q_value(tables: SolverTables, model: ReducedModel, cfg: SolverConfig,
            aug: AugmentedState, action_id: int) -> float:
    """Action cost plus probability-weighted successor values; successors
    without a stored value are valued by the configured heuristic."""
    total = model.cost(action_id)
    for succ, p in model.reduced_successors(aug, action_id):
        total += p * _value(tables, model, cfg, succ)
    return total


def ff_bellman_update(tables: SolverTables, model: ReducedModel,
                      cfg: SolverConfig, aug: AugmentedState,
                      report: SolveReport | None = None) -> float:
    """One value/policy update; returns the residual |V_new - V_old|.

    Goals short-circuit to value 0. At the exception bound the sub-planner
    runs once per base state: a successful plan writes capped suffix costs
    and actions for every plan state (keeping cheaper existing entries);
    failure or budget exhaustion writes the cap value and a NOP policy.
    Below the bound this is the capped Bellman operator with argmin
    tie-breaking by lowest action id.
    """
    v_prev = _value(tables, model, cfg, aug)
    s, j = aug
    if model.is_goal(aug):
        tables.v[aug] = 0.0
        tables.pi[aug] = NOP
        return abs(v_prev)

    if j >= model.k:
        if s not in tables.tail_solved:
            result = solve_deterministic(
                model.det_problem, s,
                budget=cfg.subplanner_budget, mode=cfg.subplanner_mode)
            if report is not None:
                report.subplanner_calls += 1
            if result.found:
                for (si, ai), suffix in zip(result.steps, result.suffix_costs):
                    aug_i = AugmentedState(si, model.k)
                    capped = min(suffix, cfg.m_cap)
                    if si in tables.tail_solved:
                        if capped < tables.v.get(aug_i, INF):
                            tables.v[aug_i] = capped
                            tables.pi[aug_i] = ai
                    else:
                        tables.tail_solved.add(si)
                        tables.v[aug_i] = capped
                        tables.pi[aug_i] = ai
            else:
                if report is not None:
                    report.subplanner_failures += 1
                    if result.status == "timeout":
                        report.subplanner_timeouts += 1
                tables.tail_solved.add(s)
                tables.v[aug] = cfg.m_cap
                tables.pi[aug] = NOP
        return abs(tables.v[aug] - v_prev)

    best_q = INF
    best_a = NOP
    for action_id in model.applicable(aug):
        q = q_value(tables, model, cfg, aug, action_id)
        if q < best_q:
            best_q = q
            best_a = action_id
    if best_a == NOP:  # no applicable actions: dead end
        tables.v[aug] = cfg.m_cap
        tables.pi[aug] = NOP
    else:
        tables.v[aug] = min(cfg.m_cap, best_q)
        tables.pi[aug] = best_a
    return abs(tables.v[aug] - v_prev)


def _policy_walk(tables: SolverTables, model: ReducedModel,
                 root: AugmentedState, past_bound: bool = False):
    """Depth-first walk of the greedy policy graph from ``root``.

    Yields ``(aug, None)`` at a tip (a state with no policy entry) and
    ``(aug, action_id)`` in post-order for every other reached state,
    with the entry it had when reached. The walk goes on through policy
    actions below the bound, or everywhere with ``past_bound``; callers
    may update the tables between yields. An explicit stack keeps
    policy-graph depth unbounded by the interpreter.
    """
    visited: set[AugmentedState] = set()
    # (state, None) enters a state; (state, action) leaves it
    stack: list[tuple[AugmentedState, int | None]] = [(root, None)]
    while stack:
        aug, action_id = stack.pop()
        if action_id is not None:
            yield aug, action_id
            continue
        if aug in visited:
            continue
        visited.add(aug)
        action_id = tables.pi.get(aug)
        if action_id is None:
            yield aug, None
            continue
        stack.append((aug, action_id))
        if (past_bound or aug.j < model.k) and action_id != NOP:
            succs = model.reduced_successors(aug, action_id)
            for succ, _ in reversed(succs):
                stack.append((succ, None))


def ff_expand(tables: SolverTables, model: ReducedModel, cfg: SolverConfig,
              root: AugmentedState,
              report: SolveReport | None = None) -> int:
    """One expansion sweep over the policy graph.

    Tips get a single update and count as one expansion; every other
    reached state gets a post-order update.
    """
    count = 0
    for aug, action_id in _policy_walk(tables, model, root):
        ff_bellman_update(tables, model, cfg, aug, report)
        if action_id is None:
            count += 1
    return count


def ff_test_convergence(tables: SolverTables, model: ReducedModel,
                        cfg: SolverConfig, root: AugmentedState,
                        report: SolveReport | None = None) -> float:
    """One convergence sweep over the policy graph.

    Returns infinity if the walk reaches a tip or any post-order update
    changes the policy; otherwise the maximum residual. The walk is not
    short-circuited, matching the post-order update discipline of the
    expansion sweep.
    """
    error = 0.0
    blocked = False  # tip reached or policy changed
    for aug, action_id in _policy_walk(tables, model, root):
        if action_id is None:
            blocked = True
            continue
        error = max(error, ff_bellman_update(tables, model, cfg, aug, report))
        if tables.pi[aug] != action_id:
            blocked = True
    return INF if blocked else error


def policy_size(tables: SolverTables, model: ReducedModel,
                root: AugmentedState) -> int:
    """Number of states with a policy entry reachable from ``root`` under
    the policy, following sub-planner plans past the bound."""
    return sum(1 for _, action_id in
               _policy_walk(tables, model, root, past_bound=True)
               if action_id is not None)


def ff_lao_star(model: ReducedModel, cfg: SolverConfig,
                tables: SolverTables | None = None,
                root: AugmentedState | None = None) -> tuple[SolverTables, SolveReport]:
    """Solve a reduced model from ``root`` (default: its initial state).

    Expansion sweeps run until no tip node is expanded, then convergence
    sweeps run until the error drops below epsilon (done) or the policy
    changes (back to expansion). Existing tables are reused, which
    warm-starts replanning calls. Raises IterationLimitError with the
    best-so-far tables when the sweep safety bound is hit.
    """
    if tables is None:
        tables = SolverTables()
    if root is None:
        root = model.initial
    report = SolveReport()
    start = time.monotonic()
    expanding = True
    while True:
        if report.sweeps >= cfg.max_sweeps:
            report.wall_time = time.monotonic() - start
            raise IterationLimitError(
                f"exceeded {cfg.max_sweeps} update sweeps", tables, report)
        report.sweeps += 1
        if expanding:
            count = ff_expand(tables, model, cfg, root, report)
            report.expansions += count
            expanding = count > 0
            continue
        error = ff_test_convergence(tables, model, cfg, root, report)
        report.residual_trace.append(error)
        if error < cfg.epsilon:
            report.converged = True
            report.v_root = tables.v[root]
            report.wall_time = time.monotonic() - start
            return tables, report
        expanding = error == INF
