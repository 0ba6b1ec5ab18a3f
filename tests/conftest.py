"""Shared fixtures (bundled domains parsed and grounded once per session)
and lookups into a grounded problem by atom and action name."""

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
