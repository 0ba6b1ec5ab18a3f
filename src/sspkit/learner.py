"""Exhaustive determinization learning.

Every determinization of a domain is scored by Monte-Carlo evaluation of
the replanning executor on a small training problem; the winner is the
cheapest among those with the highest success probability. Candidates are
independent (fresh solver tables, identical seeds), so they can optionally
be evaluated in parallel worker processes.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import prod

from .errors import EnumerationBlowupError
from .executor import DEFAULT_ACTION_CAP, EvalStats, monte_carlo_evaluate
from .grounding import GroundedProblem, ground
from .ppddl import DomainSchema, ProblemDef
from .reduction import Determinization
from .solver import DEFAULT_EPSILON, SolverConfig

ENUMERATION_CAP = 4096


@dataclass
class DetCandidate:
    index: int
    delta: Determinization
    stats: EvalStats
    solve_time: float = 0.0

    def sort_key(self) -> tuple:
        return (-self.stats.success_probability,
                self.stats.expected_cost,
                self.index)


def enumerate_determinizations(schema: DomainSchema) -> list[Determinization]:
    """All primary-outcome assignments, in clause declaration order.

    The residual no-op outcome of a clause is a candidate primary like any
    other. Raises EnumerationBlowupError (with per-clause branching) when
    the product exceeds ``ENUMERATION_CAP``.
    """
    keys: list[tuple[str, int]] = []
    counts: list[int] = []
    for action in schema.action_schemas:
        for c, clause in enumerate(action.clauses):
            keys.append((action.name, c))
            counts.append(len(clause))
    total = prod(counts)
    if total > ENUMERATION_CAP:
        raise EnumerationBlowupError(total, ENUMERATION_CAP,
                                     dict(zip(keys, counts)))
    out = []
    for combo in product(*(range(n) for n in counts)):
        out.append(Determinization(dict(zip(keys, combo))))
    return out


def _evaluate_candidate(problem: GroundedProblem, delta: Determinization,
                        index: int, k: int, epsilon: float, rounds: int,
                        seed: int, max_actions: int,
                        time_budget: float | None,
                        cfg: SolverConfig | None) -> DetCandidate:
    start = time.monotonic()
    stats, _ = monte_carlo_evaluate(problem, delta, k, epsilon, rounds, seed,
                                    max_actions=max_actions,
                                    time_budget=time_budget, cfg=cfg)
    return DetCandidate(index, delta, stats, time.monotonic() - start)


def learning_det(schema: DomainSchema, training_problem: ProblemDef, *,
                 k: int = 0, rounds: int = 50, seed: int = 0,
                 epsilon: float = DEFAULT_EPSILON,
                 max_actions: int = DEFAULT_ACTION_CAP,
                 time_budget: float | None = None,
                 cfg: SolverConfig | None = None,
                 workers: int = 1) -> tuple[Determinization, list[DetCandidate]]:
    """Pick the best determinization for a domain on a training problem.

    Every candidate is scored with the same seed and round count; the
    winner maximizes success probability, then minimizes expected cost,
    with remaining ties broken by enumeration order. Returns the winner
    plus the full candidate table ranked best-first. An all-failing table
    is not an error: the same rule applies among zero-probability
    candidates. The solver runs with ``cfg`` at ``epsilon``, as in
    ``monte_carlo_evaluate``. A total ``time_budget`` is split evenly
    across candidates so one pathological choice cannot starve the rest.
    """
    problem = ground(schema, training_problem)
    deltas = enumerate_determinizations(schema)
    per_budget = time_budget / len(deltas) if time_budget is not None else None
    evaluate = partial(_evaluate_candidate, problem, k=k, epsilon=epsilon,
                       rounds=rounds, seed=seed, max_actions=max_actions,
                       time_budget=per_budget, cfg=cfg)
    indices = range(len(deltas))
    # both maps yield the candidates in enumeration order; a pool starts
    # all its workers at once, so it gets no more than there are candidates
    workers = min(workers, len(deltas))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            candidates = list(pool.map(evaluate, deltas, indices))
    else:
        candidates = list(map(evaluate, deltas, indices))

    ranked = sorted(candidates, key=DetCandidate.sort_key)
    return ranked[0].delta, ranked
