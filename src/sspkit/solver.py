"""Heuristic search solver for single-primary reduced models.

The solver repeats one kind of sweep over the greedy policy graph: a
depth-first walk that expands each tip it reaches, stops at final leaves,
and updates in post-order every state it descends through. One sweep grows
the graph as deep as the new greedy actions reach, and a sweep that expands
nothing is the convergence test. A state at the exception bound takes the
shortest stored plan suffix whose goal-regressed condition holds there,
else a new plan of the built-in classical planner; every step of the plan
is memoized (cheaper entry kept) so those states act as terminals
afterwards. Every action costs 1. Dead ends, planner failures and all
stored values are bounded by the cost cap, which guarantees convergence.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

from .detplan import DEFAULT_EXPANSION_BUDGET, solve_deterministic
from .errors import IterationLimitError
from .grounding import GroundedProblem
from .model import iter_bits
from .reduction import AugmentedState, ReducedModel, State

NOP = -1  # policy entry for goals, dead ends and planner failures
INF = math.inf
MAX_SWEEPS = 1_000_000  # the solver's safety bound on update sweeps
DEFAULT_EPSILON = 1e-3
DEFAULT_M_CAP = 500.0


@dataclass
class SolverConfig:
    """The convergence threshold, the cost cap on every stored value, and
    the expansion budget of each greedy sub-planner call at the bound."""

    epsilon: float = DEFAULT_EPSILON
    m_cap: float = DEFAULT_M_CAP
    subplanner_budget: int = DEFAULT_EXPANSION_BUDGET

    def __post_init__(self):
        # written so that nan fails too
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.m_cap > 0:
            raise ValueError("cost cap must be > 0")


class PlanSuffixes:
    """Every suffix of the sub-planner's plans, under the goal regressed
    through it: a suffix runs to the goal from exactly the states where its
    ``(pos, neg)`` holds. Each is keyed by one atom of ``pos`` by the rule
    of ``ApplicabilityIndex.key`` (0 if none), points into its plan's one
    action list, and sits in its key's list by length, newest plan first."""

    def __init__(self):
        self.keyed: dict[int, list[tuple]] = {}
        self.key_mask = 0
        self.plans = 0

    def add(self, d: GroundedProblem, plan: list[int]) -> None:
        self.plans += 1
        pos, neg = d.goal_mask, 0
        for start in reversed(range(len(plan))):
            a = d.actions[plan[start]]
            pos = (pos & ~a.outcomes[0].add_mask) | a.pre_pos_mask
            neg = (neg & ~a.outcomes[0].del_mask) | a.pre_neg_mask
            key = d.applicability.key(pos)
            self.key_mask |= key
            bisect.insort(self.keyed.setdefault(key, []), (
                len(plan) - start, -self.plans, pos, neg, plan, start))

    def find(self, bits: int) -> list[int] | None:
        """The shortest stored suffix whose condition holds in ``bits``,
        ties going to the newest plan; None if there is none."""
        best = None
        for key in (0, *(1 << i for i in iter_bits(bits & self.key_mask))):
            for entry in self.keyed.get(key, ()):
                if bits & entry[2] == entry[2] and not bits & entry[3]:
                    best = min(best or entry, entry)
                    break
        return None if best is None else best[4][best[5]:]


@dataclass
class SolverTables:
    """Mutable per-solve state, reusable across replanning calls.

    A bound state with a policy entry is solved: no sweep updates it again,
    nor a state whose entry is ``NOP``. ``records`` holds each state's
    backup record below the bound, built on its first update: a tuple of
    (action id, successors) pairs in applicable order. ``solved``
    holds every state, at any exception count, on the greedy graph of a
    converged solve whose entry no write has changed since; the executor
    acts from those below the bound. Callers must not mutate a record.
    ``suffixes`` keeps the sub-planner's plans for reuse at the bound.
    """

    v: dict[AugmentedState, float] = field(default_factory=dict)
    pi: dict[AugmentedState, int] = field(default_factory=dict)
    records: dict[AugmentedState, tuple] = field(default_factory=dict)
    solved: set[AugmentedState] = field(default_factory=set)
    suffixes: PlanSuffixes = field(default_factory=PlanSuffixes)


@dataclass
class SolveReport:
    v_root: float = 0.0
    expansions: int = 0
    sweeps: int = 0
    subplanner_calls: int = 0
    subplanner_failures: int = 0
    subplanner_timeouts: int = 0
    residual_trace: list[float] = field(default_factory=list)
    wall_time: float = 0.0


def _heuristic(model: ReducedModel, cfg: SolverConfig, bits: int) -> float:
    h = model.problem.relaxed_task.evaluate(bits)[0]
    return min(h, cfg.m_cap)


def _backup_record(tables: SolverTables, model: ReducedModel,
                   aug: AugmentedState):
    """Every applicable action of ``aug`` as (action id, successors), in
    applicable order; built on the first call."""
    record = tables.records.get(aug)
    if record is None:
        record = tuple((a, model.reduced_successors(aug, a))
                       for a in model.applicable(aug))
        tables.records[aug] = record
    return record


def _store(tables: SolverTables, aug: AugmentedState, value: float,
           action_id: int) -> None:
    """Write an entry, which is no longer solved."""
    tables.v[aug] = value
    tables.pi[aug] = action_id
    tables.solved.discard(aug)


def ff_bellman_update(tables: SolverTables, model: ReducedModel,
                      cfg: SolverConfig, aug: AugmentedState,
                      report: SolveReport) -> float:
    """One value/policy update; returns the residual |V_new - V_old|,
    where a state with no stored value has V_old = 0.

    Goals short-circuit to value 0. At the exception bound (sweeps call
    only at a bound state without an entry) the plan is the shortest
    stored suffix that ``tables.suffixes`` finds; on a miss the greedy
    sub-planner runs, its plan is stored, and ``report`` counts its calls
    and failures. A plan writes capped suffix lengths and actions for every
    plan state (keeping cheaper existing entries); failure or budget
    exhaustion writes the cap value and a NOP policy.
    Below the bound this is the capped Bellman operator over the state's
    backup record, every action at cost 1, with argmin tie-breaking by
    lowest action id; a successor with no stored value gets 0 at a goal,
    else the capped heuristic.
    """
    s, j = aug
    v = tables.v
    v_prev = v.get(aug, 0.0)
    if model.is_goal(aug):
        _store(tables, aug, 0.0, NOP)
    elif j >= model.k:
        d = model.det_problem
        plan = tables.suffixes.find(s.bits)
        if plan is None:
            result = solve_deterministic(d, s.bits,
                                         budget=cfg.subplanner_budget)
            report.subplanner_calls += 1
            plan = [ai for _, ai in result.steps]
            if result.found:
                tables.suffixes.add(d, plan)
            else:
                report.subplanner_failures += 1
                if result.status == "timeout":
                    report.subplanner_timeouts += 1
                _store(tables, aug, cfg.m_cap, NOP)
        bits, n = s.bits, len(plan)
        for i, ai in enumerate(plan):
            aug_i = AugmentedState(State(bits), model.k)
            capped = min(float(n - i), cfg.m_cap)
            if aug_i not in tables.pi or capped < v[aug_i]:
                _store(tables, aug_i, capped, ai)
            o = d.actions[ai].outcomes[0]
            bits = (bits & ~o.del_mask) | o.add_mask
    else:
        best_q = INF
        best_a = NOP
        for action_id, succs in _backup_record(tables, model, aug):
            q = 1.0
            for succ, p in succs:
                value = v.get(succ)
                if value is None:
                    value = v[succ] = (
                        0.0 if model.is_goal(succ)
                        else _heuristic(model, cfg, succ.state.bits))
                q += p * value
            if q < best_q:
                best_q = q
                best_a = action_id
        # best_a stays NOP at a dead end, a state with no applicable action
        _store(tables, aug,
               cfg.m_cap if best_a == NOP else min(cfg.m_cap, best_q), best_a)
    return abs(v[aug] - v_prev)


def ff_sweep(tables: SolverTables, model: ReducedModel, cfg: SolverConfig,
             root: AugmentedState, report: SolveReport) -> float:
    """One depth-first sweep over the greedy policy graph from ``root``.

    Each tip (a state with no policy entry) is updated as it is reached
    and counts as one expansion. Final leaves (a ``NOP`` entry or an entry
    at the bound) end the walk there, since an update would leave them as
    they are. The walk descends through every other state's policy
    action, whose successors it takes from the backup record, and updates
    the state again in post-order. Returns infinity if a tip was expanded
    or a policy changed, otherwise the largest residual. Below epsilon,
    the sweep walked the final greedy graph, and every state it reached
    joins ``tables.solved``. An explicit stack keeps policy-graph depth
    unbounded by the interpreter.
    """
    error = 0.0
    changed = False  # a tip expanded or a policy changed
    visited: set[AugmentedState] = set()
    # (state, None) enters a state; (state, action) leaves it
    stack: list[tuple[AugmentedState, int | None]] = [(root, None)]
    push = stack.append
    pi = tables.pi
    k = model.k
    while stack:
        aug, action_id = stack.pop()
        if action_id is not None:
            error = max(error,
                        ff_bellman_update(tables, model, cfg, aug, report))
            changed = changed or pi[aug] != action_id
            continue
        if aug in visited:
            continue
        visited.add(aug)
        action_id = pi.get(aug)
        if action_id is None:
            ff_bellman_update(tables, model, cfg, aug, report)
            report.expansions += 1
            changed = True
            action_id = pi[aug]
        if action_id == NOP or aug[1] >= k:
            continue
        for a, succs in tables.records[aug]:  # the entry came from it
            if a == action_id:
                break
        push((aug, action_id))
        for succ, _ in reversed(succs):
            push((succ, None))
    if changed:
        return INF
    if error < cfg.epsilon:
        tables.solved.update(visited)
    return error


def policy_size(tables: SolverTables, model: ReducedModel,
                root: AugmentedState) -> int:
    """Number of states with a policy entry reachable from ``root`` under
    the policy, following sub-planner plans past the bound."""
    seen = {root}
    stack = [root]
    count = 0
    while stack:
        aug = stack.pop()
        action_id = tables.pi.get(aug)
        if action_id is None:
            continue
        count += 1
        if action_id == NOP:
            continue
        for succ, _ in model.reduced_successors(aug, action_id):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return count


def ff_lao_star(model: ReducedModel, cfg: SolverConfig,
                tables: SolverTables | None = None,
                root: AugmentedState | None = None) -> tuple[SolverTables, SolveReport]:
    """Solve a reduced model from ``root`` (default: its initial state).

    A successor that no update has valued yet gets FF's relaxed-plan
    estimate, capped, when a backup first reads it. Sweeps
    (``ff_sweep``) run until one's error drops below epsilon, and
    ``residual_trace`` holds each sweep's error; a sweep that expands a tip
    or changes a policy has error infinity. So the last sweep walked the
    final greedy graph, whose states it adds to ``tables.solved``. Existing
    tables are reused, which warm-starts replanning calls. Raises
    IterationLimitError when ``MAX_SWEEPS`` sweeps have not converged.
    """
    if tables is None:
        tables = SolverTables()
    if root is None:
        root = model.initial
    report = SolveReport()
    start = time.monotonic()
    while True:
        if report.sweeps >= MAX_SWEEPS:
            raise IterationLimitError(f"exceeded {MAX_SWEEPS} update sweeps")
        report.sweeps += 1
        error = ff_sweep(tables, model, cfg, root, report)
        report.residual_trace.append(error)
        if error < cfg.epsilon:
            report.v_root = tables.v[root]
            report.wall_time = time.monotonic() - start
            return tables, report
