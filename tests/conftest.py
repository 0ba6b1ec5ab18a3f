"""Shared fixtures (bundled domains parsed and grounded once per session),
lookups into a grounded problem by atom and action name, a plan replayer,
reference searches on explicit models, and an exact-solver setup."""

from __future__ import annotations

import heapq
import sys
from functools import partial

import pytest

from sspkit import detplan, ground, parse_domain, parse_problem, solver
from sspkit.domains import gen_chain, gen_retry, gen_trap, gen_triangle_tireworld
from sspkit.model import is_goal
from sspkit.reduction import Determinization


def state_from_atoms(grounded, names) -> int:
    bits = 0
    for name in names:
        bits |= 1 << grounded.atoms.index(name)
    return bits


def action_by_name(grounded, name: str):
    return next((a for a in grounded.actions if a.name == name), None)


def action_id(grounded, name: str) -> int:
    """The position in ``grounded.actions`` of the action named ``name``."""
    return next(i for i, a in enumerate(grounded.actions) if a.name == name)


def validate_plan(d, bits: int, result) -> bool:
    """Replay a plan of ``d``, a problem with one outcome per action, from
    the state ``bits``: every action applicable, and the final state
    satisfies the goal."""
    for state, position in result.steps:
        if state != bits:
            return False
        a = d.actions[position]
        if bits & a.pre_pos_mask != a.pre_pos_mask or bits & a.pre_neg_mask:
            return False
        o = a.outcomes[0]
        bits = (bits & ~o.del_mask) | o.add_mask
    return is_goal(bits, d)


def is_deterministic(m) -> bool:
    return all(len(succs) == 1 for rows in m.actions for _, succs in rows)


def optimal_plan(m):
    """Shortest plan from the initial state, state 0, in a deterministic
    explicit model.

    Returns (cost, [(state index, action position), ...]) or None when the
    goal is unreachable.
    """
    if not is_deterministic(m):
        raise ValueError("optimal_plan requires a deterministic model")
    dist = {0: 0.0}
    parent: dict[int, tuple[int, int]] = {}
    heap = [(0.0, 0)]
    done: set[int] = set()
    while heap:
        d, i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        if m.goal[i]:
            steps = []
            at = i
            while at != 0:
                prev, action_id = parent[at]
                steps.append((prev, action_id))
                at = prev
            steps.reverse()
            return d, steps
        for action_id, succs in m.actions[i]:
            (s2, _), = succs
            nd = d + 1.0
            if s2 not in dist or nd < dist[s2]:
                dist[s2] = nd
                parent[s2] = (i, action_id)
                heapq.heappush(heap, (nd, s2))
    return None


def almost_sure_winning(m) -> set[int]:
    """States from which some policy reaches the goal with probability 1.

    Iterates: restrict to actions whose successors stay inside the current
    candidate set, keep the states that can still reach the goal, repeat to
    a fixed point. The initial state being in this set is exactly the
    existence of a proper policy rooted there.
    """
    universe = set(range(m.n_states))
    while True:
        reach = {i for i in universe if m.goal[i]}
        changed = True
        while changed:
            changed = False
            for i in universe:
                if i in reach:
                    continue
                for _, succs in m.actions[i]:
                    targets = [s2 for s2, _ in succs]
                    if all(t in universe for t in targets) and any(
                            t in reach for t in targets):
                        reach.add(i)
                        changed = True
                        break
        if reach == universe:
            return universe
        universe = reach


def proper_policy_exists(m) -> bool:
    return 0 in almost_sure_winning(m)


def load(domain_text: str, problem_text: str):
    schema = parse_domain(domain_text)
    problem = parse_problem(problem_text, schema)
    return schema, problem, ground(schema, problem)


@pytest.fixture(scope="session")
def triangle1():
    return load(*gen_triangle_tireworld(1))


@pytest.fixture(scope="session")
def triangle2():
    return load(*gen_triangle_tireworld(2))


@pytest.fixture(scope="session")
def retry():
    return load(*gen_retry())


@pytest.fixture(scope="session")
def trap():
    return load(*gen_trap())


@pytest.fixture(scope="session")
def chain2():
    return load(*gen_chain(2))


@pytest.fixture()
def int_digit_limit():
    """Python's default limit on the digits of an int/str conversion, 4,300,
    set for one test whatever the interpreter's setting, and restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture()
def exact_solver(monkeypatch):
    """Make the search solver exact: new states are valued by the zero
    heuristic, which is admissible, and every state at the exception bound
    gets an optimal plan from the sub-planner. A stored plan's suffix need
    not be shortest from a new state, so the suffix lookup always misses."""
    monkeypatch.setattr(solver, "_heuristic", lambda model, cfg, s: 0.0)
    monkeypatch.setattr(solver, "solve_deterministic",
                        partial(detplan.solve_deterministic, mode="optimal"))
    monkeypatch.setattr(solver.PlanSuffixes, "find", lambda self, bits: None)


FLAT_DELTA = Determinization({("move-car", 0): 0, ("loadtire", 0): 0,
                              ("changetire", 0): 0})
NOFLAT_DELTA = Determinization({("move-car", 0): 1, ("loadtire", 0): 0,
                                ("changetire", 0): 0})
