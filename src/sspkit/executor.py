"""Policy execution with replanning, Monte-Carlo evaluation, and a
newline-delimited JSON state/action protocol for external planners.

A round executes the solver's policy on the original problem, sampling
its true transitions (``sample_successor``), and follows the planned-for
exceptions, as in the continual planning of Pineda & Zilberstein (2014).
After acting from the key ``(bits, j)`` with action ``a``, it reads the
observed ``bits'`` as ``a``'s primary outcome when they equal that
outcome's bits, and as an exception otherwise; so a non-primary outcome
whose bits equal the primary's counts as primary. The next key is
``(bits', j)`` or ``(bits', j + 1)``, and the round acts from it when its
count is below the bound ``k`` and it is ``solved``. In every other case,
an exception that brings the count to ``k`` among them, the round looks
the state up at ``(bits', 0)``, as at its start, and re-invokes the solver
from there, warm-starting the shared tables, when that key has no policy
entry or, at ``k > 0``, an entry that is not ``solved``: a sweep may write
one on a greedy graph that a later sweep abandons. No key at the bound is
acted from, since there the plan is the sub-planner's deterministic one,
which guards against no exception. A round ends on goal entry, on the
action cap, on a dead-end policy entry, on an invalid action, or on the
wall-time budget.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, replace

from .errors import NotApplicableError
from .grounding import GroundedProblem
from .model import is_goal, outcome_bits, successors
from .reduction import AugmentedState, Determinization, State, make_reduction
from .solver import DEFAULT_M_CAP, NOP, SolverConfig, SolverTables, ff_lao_star

OUTCOME_GOAL = "goal"
OUTCOME_ACTION_CAP = "action_cap"
OUTCOME_DEAD_END = "dead_end"
OUTCOME_INVALID = "invalid_action"
OUTCOME_TIMEOUT = "timeout"

DEFAULT_ACTION_CAP = 2500
DEFAULT_TIME_BUDGET = 1200.0  # seconds per evaluation (50 rounds)

COST_POLICY = "mean-over-all-rounds; failed rounds add the cost cap as penalty"


@dataclass
class RoundReport:
    outcome: str
    actions_taken: int
    accumulated_cost: float
    replans: int
    seed: str
    wall_time: float = 0.0

    def as_dict(self, *, timings: bool = False) -> dict:
        d = asdict(self)
        if not timings:
            del d["wall_time"]
        return d


@dataclass
class EvalStats:
    rounds: int
    successes: int
    success_probability: float
    expected_cost: float
    cost_policy: str = COST_POLICY

    def as_dict(self) -> dict:
        return asdict(self)


def sample_successor(problem: GroundedProblem, bits: int, action_id: int,
                     rng: random.Random) -> int:
    """One successor of the state ``bits`` under the base problem's true
    transitions; raises NotApplicableError if the action is not
    applicable."""
    dist = successors(bits, action_id, problem)
    r = rng.random()
    acc = 0.0
    for nxt, p in dist:
        acc += p
        if r < acc:
            return nxt
    return dist[-1][0]


def play_round(problem: GroundedProblem, choose, rng: random.Random,
               seed_label: str, *, max_actions: int = DEFAULT_ACTION_CAP,
               deadline: float | None = None) -> RoundReport:
    """Play one round from the initial state.

    ``choose(bits, step)`` gets the state as its ``int`` bitset and names
    the next action: an action id, or an outcome string that ends the
    round. The round also ends on goal entry, on the action cap, once
    ``time.monotonic()`` has reached ``deadline``, or on an action that is
    not applicable (``invalid_action``).
    """
    start = time.monotonic()
    s = problem.initial_state
    taken = 0
    while True:
        if is_goal(s, problem):
            outcome = OUTCOME_GOAL
            break
        if taken >= max_actions:
            outcome = OUTCOME_ACTION_CAP
            break
        if deadline is not None and time.monotonic() >= deadline:
            outcome = OUTCOME_TIMEOUT
            break
        action_id = choose(s, taken)
        if isinstance(action_id, str):
            outcome = action_id
            break
        try:
            s = sample_successor(problem, s, action_id, rng)
        except NotApplicableError:
            outcome = OUTCOME_INVALID
            break
        taken += 1
    return RoundReport(outcome, taken, float(taken), 0, seed_label,
                       time.monotonic() - start)


class ReplanSession:
    """Reduction + solver tables shared across rounds for one determinization."""

    def __init__(self, problem: GroundedProblem, delta: Determinization,
                 k: int, cfg: SolverConfig | None = None):
        self.problem = problem
        self.model = make_reduction(problem, delta, k)
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.tables = SolverTables()

    def run_round(self, rng: random.Random, seed_label: str, *,
                  max_actions: int = DEFAULT_ACTION_CAP,
                  deadline: float | None = None) -> RoundReport:
        problem, model, tables = self.problem, self.model, self.tables
        k = model.k
        replans = 0
        acted: tuple[AugmentedState, int] | None = None  # key and action

        def policy(bits: int, _step: int) -> int | str:
            nonlocal replans, acted
            aug = None
            if acted is not None:
                (s, j), a = acted
                if bits != outcome_bits(s.bits, a, problem)[model.primary[a]]:
                    j += 1  # an exception
                nxt = AugmentedState(State(bits), j)
                if j < k and nxt in tables.solved:
                    aug = nxt
            if aug is None:
                aug = AugmentedState(State(bits), 0)
                if aug not in tables.pi or (k > 0 and aug not in tables.solved):
                    ff_lao_star(model, self.cfg, tables, root=aug)
                    replans += 1
            action_id = tables.pi[aug]
            if action_id == NOP:
                # a followed key lies below the bound, where only a state
                # with no applicable action has a NOP entry: a replan from
                # (bits, 0) would end at the same dead end
                return OUTCOME_DEAD_END
            if k > 0:  # at k = 0 no key is below the bound
                acted = (aug, action_id)
            return action_id

        report = play_round(problem, policy, rng, seed_label,
                            max_actions=max_actions, deadline=deadline)
        report.replans = replans
        return report


def round_rng(seed: int, round_index: int) -> tuple[random.Random, str]:
    """Per-round RNG derived from the master seed; the label alone replays
    the round."""
    label = f"{seed}:{round_index}"
    return random.Random(label), label


def aggregate(reports: list[RoundReport], m_cap: float) -> EvalStats:
    successes = sum(1 for r in reports if r.outcome == OUTCOME_GOAL)
    if reports:
        costs = [r.accumulated_cost + (0.0 if r.outcome == OUTCOME_GOAL else m_cap)
                 for r in reports]
        mean_cost = sum(costs) / len(costs)
        p = successes / len(reports)
    else:
        mean_cost = 0.0
        p = 0.0
    return EvalStats(len(reports), successes, p, mean_cost)


def monte_carlo_evaluate(problem: GroundedProblem, delta: Determinization,
                         k: int, epsilon: float, rounds: int, seed: int, *,
                         max_actions: int = DEFAULT_ACTION_CAP,
                         time_budget: float | None = None,
                         cfg: SolverConfig | None = None,
                         ) -> tuple[EvalStats, list[RoundReport]]:
    """Run seeded rounds sharing solver tables and aggregate the results.

    The solver runs with ``cfg`` (default ``SolverConfig()``) at
    ``epsilon``. ``time_budget`` bounds the whole evaluation: every round
    plays to one deadline, so a round still short of the goal when it
    passes ends as a timeout and counts as a failure.
    """
    session = ReplanSession(problem, delta, k,
                            replace(cfg or SolverConfig(), epsilon=epsilon))
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    reports: list[RoundReport] = []
    for r in range(rounds):
        rng, label = round_rng(seed, r)
        reports.append(session.run_round(
            rng, label, max_actions=max_actions, deadline=deadline))
    return aggregate(reports, session.cfg.m_cap), reports


# ── stdio state/action protocol ──────────────────────────────────────────────
#
# One JSON object per line. The server (this side) simulates the problem;
# the client chooses actions. Each client line is read as bytes and decoded
# as UTF-8 on its own, so a line that is not UTF-8 costs only its round:
#   -> {"schema_version": 1, "type": "hello", ...}
#   -> {"type": "state", "round": r, "step": t, "atoms": [...], "goal": bool}
#   <- {"action": "(name args)"}        null action forfeits the round
#      (a line that is not a JSON object, or names no applicable action,
#      ends the round as invalid_action)
#   -> {"type": "round-end", "round": r, "outcome": ..., "actions": n, "cost": c}
#   -> {"type": "eval", ...}

PROTOCOL_VERSION = 1


def serve_rounds(problem: GroundedProblem, reader, writer, *, rounds: int,
                 seed: int, max_actions: int = DEFAULT_ACTION_CAP,
                 m_cap: float = DEFAULT_M_CAP) -> EvalStats:
    """Drive the stdio protocol: the remote side supplies the actions.

    ``reader`` yields the client's lines as bytes (``sys.stdin.buffer``);
    ``writer`` takes text."""

    def send(obj: dict) -> None:
        writer.write(json.dumps(obj) + "\n")
        writer.flush()

    action_ids = {a.name: a.id for a in problem.actions}
    send({"schema_version": PROTOCOL_VERSION, "type": "hello",
          "domain": problem.schema.name, "problem": problem.problem_name,
          "rounds": rounds, "max_actions": max_actions})
    reports: list[RoundReport] = []
    hung_up = False

    def client(bits: int, step: int) -> int | str:
        nonlocal hung_up
        send({"type": "state", "round": r, "step": step,
              "atoms": problem.atom_names(bits), "goal": False})
        line = reader.readline()
        if not line:
            hung_up = True
            return OUTCOME_DEAD_END
        try:
            msg = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            # not UTF-8, not JSON, an integer past the interpreter's digit
            # limit, or nested too deep
            return OUTCOME_INVALID
        if not isinstance(msg, dict):
            return OUTCOME_INVALID
        name = msg.get("action")
        if name is None:
            return OUTCOME_DEAD_END
        if not isinstance(name, str) or name not in action_ids:
            return OUTCOME_INVALID
        return action_ids[name]

    for r in range(rounds):
        rng, label = round_rng(seed, r)
        report = play_round(problem, client, rng, label,
                            max_actions=max_actions)
        reports.append(report)
        send({"type": "round-end", "round": r, "outcome": report.outcome,
              "actions": report.actions_taken,
              "cost": report.accumulated_cost})
        if hung_up:
            break
    stats = aggregate(reports, m_cap)
    send({"type": "eval", **stats.as_dict()})
    return stats
