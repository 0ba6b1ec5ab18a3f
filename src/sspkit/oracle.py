"""Ground-truth solvers on explicitly enumerated state spaces.

These exist for desk-scale verification: reachability enumeration and
exact value iteration with the cost cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, IterationLimitError
from .grounding import GroundedProblem
from .model import applicable_actions, is_goal, successors
from .reduction import ReducedModel
from .solver import DEFAULT_M_CAP

DEFAULT_STATE_CAP = 100_000
MAX_SWEEPS = 1_000_000  # value iteration's safety bound


@dataclass
class ExplicitModel:
    """Dense enumeration of the reachable states; state 0 is the initial one.

    ``actions[i]`` lists (action position, [(successor index, probability)])
    for state index ``i``; every action costs 1. Goal states keep their
    action lists but are treated as absorbing by the solvers.
    """

    labels: list
    goal: list[bool]
    actions: list[list[tuple[int, list[tuple[int, float]]]]]

    @property
    def n_states(self) -> int:
        return len(self.labels)


def enumerate_model(source: GroundedProblem | ReducedModel, *,
                    cap: int = DEFAULT_STATE_CAP) -> ExplicitModel:
    """Breadth-first enumeration of a base problem or a reduced model."""
    if isinstance(source, ReducedModel):
        initial = source.initial
        goal_test = source.is_goal
        act = source.applicable
        succ = source.reduced_successors
    else:
        initial = source.initial_state
        goal_test = lambda s: is_goal(s, source)
        act = lambda s: applicable_actions(s, source)
        succ = lambda s, a: successors(s, a, source)

    labels = [initial]
    index = {initial: 0}
    goal = [goal_test(initial)]
    rows: list[list[tuple[int, list[tuple[int, float]]]]] = []
    frontier = 0
    while frontier < len(labels):
        state = labels[frontier]
        frontier += 1
        state_rows = []
        for action_id in act(state):
            entries = []
            for nxt, p in succ(state, action_id):
                idx = index.get(nxt)
                if idx is None:
                    if len(labels) >= cap:
                        raise CapExceededError(
                            f"reachable state count exceeds cap {cap}")
                    idx = len(labels)
                    index[nxt] = idx
                    labels.append(nxt)
                    goal.append(goal_test(nxt))
                entries.append((idx, p))
            state_rows.append((action_id, entries))
        rows.append(state_rows)
    return ExplicitModel(labels, goal, rows)


def value_iteration(m: ExplicitModel, *, epsilon: float = 1e-9,
                    m_cap: float = DEFAULT_M_CAP
                    ) -> tuple[list[float], list[int]]:
    """Capped value iteration to a fixed point; greedy policy uses the same
    lowest-action-id tie-break as the search solver. Goal values are 0;
    states with no path to the goal converge to exactly the cap. Raises
    IterationLimitError when ``MAX_SWEEPS`` sweeps have not converged."""
    n = m.n_states
    values = [0.0] * n
    policy = [-1] * n
    for _ in range(MAX_SWEEPS):
        residual = 0.0
        for i in range(n):
            if m.goal[i]:
                continue
            best = float("inf")
            best_a = -1
            for action_id, succs in m.actions[i]:
                q = 1.0 + sum(p * values[s2] for s2, p in succs)
                if q < best:
                    best = q
                    best_a = action_id
            new_v = m_cap if best_a == -1 else min(m_cap, best)
            residual = max(residual, abs(new_v - values[i]))
            values[i] = new_v
            policy[i] = best_a
        if residual < epsilon:
            return values, policy
    raise IterationLimitError(f"value iteration exceeded {MAX_SWEEPS} sweeps")
