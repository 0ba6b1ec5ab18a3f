"""Seeded random problem generators for verification.

These build small domains over nullary predicates (so every action schema
grounds to exactly one action) with exact rational outcome probabilities.
They back the property tests and the oracle-equivalence suite and are not
part of the planning pipeline itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from sspkit.grounding import GroundedProblem, ground
from sspkit.oracle import enumerate_model
from sspkit.ppddl import (ActionSchema, Atom, DomainSchema, Literal, Outcome,
                    Predicate, ProblemDef)
from sspkit.reduction import Determinization, ReducedModel, make_reduction

from conftest import proper_policy_exists


def random_domain(rng: random.Random, *, n_atoms: int = 5,
                  n_actions: int | None = None, max_clauses: int = 2,
                  max_outcomes: int = 3,
                  deterministic: bool = False) -> tuple[DomainSchema, ProblemDef]:
    """A random domain over nullary predicates plus a random problem."""
    atoms = [Atom(f"a{i}") for i in range(n_atoms)]
    predicates = tuple(Predicate(a.pred, ()) for a in atoms)
    if n_actions is None:
        n_actions = rng.randint(2, 6)

    def effect_pair() -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
        add = tuple(a for a in atoms if rng.random() < 0.3)
        dele = tuple(a for a in atoms if a not in add and rng.random() < 0.2)
        return add, dele

    schemas = []
    for i in range(n_actions):
        pre = tuple(Literal(a, negated=rng.random() < 0.25)
                    for a in atoms if rng.random() < 0.3)
        n_clauses = 1 if deterministic else rng.randint(1, max_clauses)
        clauses = []
        for _ in range(n_clauses):
            if deterministic:
                add, dele = effect_pair()
                clauses.append((Outcome(Fraction(1), add, dele),))
                continue
            m = rng.randint(1, max_outcomes)
            weights = [rng.randint(1, 5) for _ in range(m)]
            total = sum(weights) + (rng.randint(1, 4) if rng.random() < 0.3 else 0)
            outcomes = []
            for w in weights:
                add, dele = effect_pair()
                outcomes.append(Outcome(Fraction(w, total), add, dele))
            if total > sum(weights):  # the residual mass is a last no-op
                outcomes.append(Outcome(Fraction(total - sum(weights), total)))
            clauses.append(tuple(outcomes))
        schemas.append(ActionSchema(f"act{i}", (), pre, tuple(clauses)))

    schema = DomainSchema("rand", {}, predicates, tuple(schemas))
    init = tuple(a for a in atoms if rng.random() < 0.4)
    n_goal = rng.randint(1, max(1, n_atoms // 2))
    goal = tuple(rng.sample(atoms, n_goal))
    problem = ProblemDef("rand-p", "rand", (), init, goal)
    return schema, problem


def determinization_count(schema: DomainSchema) -> int:
    """How many determinizations ``enumerate_determinizations`` lists."""
    return prod(len(clause) for action in schema.action_schemas
                for clause in action.clauses)


def random_determinization(rng: random.Random,
                           schema: DomainSchema) -> Determinization:
    choices = {}
    for action in schema.action_schemas:
        for c, clause in enumerate(action.clauses):
            choices[(action.name, c)] = rng.randrange(len(clause))
    return Determinization(choices)


def random_reduced_setup(rng: random.Random, *, n_atoms: int = 5,
                         max_k: int = 2
                         ) -> tuple[GroundedProblem, Determinization, int, ReducedModel]:
    schema, problem = random_domain(rng, n_atoms=n_atoms)
    grounded = ground(schema, problem)
    delta = random_determinization(rng, schema)
    k = rng.randint(0, max_k)
    return grounded, delta, k, make_reduction(grounded, delta, k)


def random_proper_reduced_setup(rng: random.Random, *, n_atoms: int = 5,
                                max_k: int = 2, state_cap: int = 2000,
                                max_tries: int = 200):
    """Keep sampling until the reduced model has a proper policy rooted at
    its initial state (and a non-trivial reachable space)."""
    for _ in range(max_tries):
        grounded, delta, k, model = random_reduced_setup(
            rng, n_atoms=n_atoms, max_k=max_k)
        try:
            explicit = enumerate_model(model, cap=state_cap)
        except Exception:
            continue
        if not proper_policy_exists(explicit):
            continue
        return grounded, delta, k, model, explicit
    raise RuntimeError("no proper random model found within the retry budget")
