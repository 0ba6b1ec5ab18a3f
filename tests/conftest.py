"""Shared fixtures (bundled domains parsed and grounded once per session),
lookups into a grounded problem by atom and action name, and a plan
replayer."""

from __future__ import annotations

import pytest

from sspkit import State, ground, parse_domain, parse_problem
from sspkit.domains import gen_chain, gen_retry, gen_trap, gen_triangle_tireworld
from sspkit.reduction import Determinization


def state_from_atoms(grounded, names) -> State:
    bits = 0
    for name in names:
        bits |= 1 << grounded.atom_index[name]
    return State(bits)


def action_by_name(grounded, name: str):
    return next((a for a in grounded.actions if a.name == name), None)


def validate_plan(d, s: State, result) -> bool:
    """Replay a plan: every action applicable, final state satisfies the goal,
    and suffix costs equal the remaining step-cost sums."""
    bits = s.bits
    for i, (state, action_id) in enumerate(result.steps):
        if state.bits != bits:
            return False
        a = d.actions_by_id[action_id]
        if bits & a.pre_pos_mask != a.pre_pos_mask or bits & a.pre_neg_mask:
            return False
        expect = sum(d.actions_by_id[aid].cost for _, aid in result.steps[i:])
        if abs(result.suffix_costs[i] - expect) > 1e-9:
            return False
        bits = d.apply(bits, a)
    return d.is_goal(bits)


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


FLAT_DELTA = Determinization({("move-car", 0): 0, ("loadtire", 0): 0,
                              ("changetire", 0): 0})
NOFLAT_DELTA = Determinization({("move-car", 0): 1, ("loadtire", 0): 0,
                                ("changetire", 0): 0})
