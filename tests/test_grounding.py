"""Grounding tests: residual mass, cross products, pruning, determinism."""

import random
from fractions import Fraction

import pytest

from sspkit import GroundingBlowupError, ground, parse_domain, parse_problem
from sspkit.oracle import enumerate_model
from sspkit.ppddl import (ActionSchema, Atom, DomainSchema, Outcome,
                          Predicate, ProbabilisticClause, ProblemDef)

from randmodels import random_domain


def nullary_domain(clauses, name="d") -> tuple[DomainSchema, ProblemDef]:
    atoms = sorted({a.pred for clause in clauses
                    for o in clause.outcomes for a in o.add + o.delete} | {"g"})
    schema = DomainSchema(
        name, (":strips",), {},
        tuple(Predicate(p, ()) for p in atoms),
        (ActionSchema("act", (), (), tuple(clauses)),))
    problem = ProblemDef("p", name, (), (), (Atom("g"),))
    return schema, problem


def test_residual_mass_becomes_null_outcome():
    clause = ProbabilisticClause((
        Outcome(Fraction(2, 5), (Atom("x"),), ()),
        Outcome(Fraction(2, 5), (Atom("y"),), ()),
    ))
    schema, problem = nullary_domain([clause])
    grounded = ground(schema, problem)
    (action,) = grounded.actions
    probs = [o.probability for o in action.outcomes]
    assert probs == [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    null = action.outcomes[-1]
    assert null.add_mask == 0 and null.del_mask == 0
    assert null.choice == (2,)


def test_cross_product_outcomes():
    c1 = ProbabilisticClause((
        Outcome(Fraction(1, 2), (Atom("x"),), ()),
        Outcome(Fraction(1, 2), (Atom("y"),), ()),
    ))
    c2 = ProbabilisticClause((
        Outcome(Fraction(9, 10), (Atom("u"),), ()),
        Outcome(Fraction(1, 10), (Atom("v"),), ()),
    ))
    schema, problem = nullary_domain([c1, c2])
    grounded = ground(schema, problem)
    (action,) = grounded.actions
    assert [float(o.probability) for o in action.outcomes] == [
        0.45, 0.05, 0.45, 0.05]
    assert [o.choice for o in action.outcomes] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(o.probability for o in action.outcomes) == 1


def test_exact_unit_probability_sums(triangle1, retry, trap):
    rng = random.Random(11)
    problems = [triangle1[2], retry[2], trap[2]]
    for _ in range(20):
        schema, prob = random_domain(rng)
        problems.append(ground(schema, prob))
    for grounded in problems:
        for action in grounded.actions:
            assert sum(o.probability for o in action.outcomes) == 1


def test_triangle1_counts_match_enumeration_oracle(triangle1):
    _, _, grounded = triangle1
    # 7 road pairs + 4 spare locations + 1 changetire
    assert grounded.action_count == 12
    explicit = enumerate_model(grounded)
    assert explicit.n_states == 65


def test_static_reachability_pruning(triangle1):
    _, _, grounded = triangle1
    moves = [a for a in grounded.actions if a.schema_name == "move-car"]
    # only the 7 road pairs survive out of 6*6 bindings
    assert len(moves) == 7
    assert grounded.action_by_name("(move-car l-1-1 l-1-1)") is None
    assert grounded.action_by_name("(move-car l-1-1 l-1-2)") is not None


def test_grounding_deterministic_order(triangle1):
    schema, problem, grounded = triangle1
    again = ground(schema, problem)
    names = [a.name for a in grounded.actions]
    assert names == [a.name for a in again.actions]
    keyed = sorted(names, key=lambda n: (n.strip("()").split()[0],
                                         n.strip("()").split()[1:]))
    assert names == keyed
    assert grounded.atoms == again.atoms


def test_grounding_blowup_cap():
    text = """
    (define (domain big)
      (:predicates (p ?a - object ?b - object ?c - object))
      (:action a
        :parameters (?a - object ?b - object ?c - object)
        :precondition (and)
        :effect (p ?a ?b ?c)))
    """
    schema = parse_domain(text)
    objects = " ".join(f"o{i}" for i in range(30))
    problem = parse_problem(
        f"(define (problem p) (:domain big) (:objects {objects} - object)"
        "(:init) (:goal (and)))", schema)
    with pytest.raises(GroundingBlowupError):
        ground(schema, problem, max_actions=1000)


def test_equality_constraints_filter_bindings():
    schema = parse_domain("""
    (define (domain eq)
      (:requirements :strips :equality)
      (:predicates (at ?x - object) (linked ?a - object ?b - object))
      (:action hop
        :parameters (?a - object ?b - object)
        :precondition (and (at ?a) (linked ?a ?b) (not (= ?a ?b)))
        :effect (and (at ?b) (not (at ?a)))))
    """)
    problem = parse_problem("""
    (define (problem p) (:domain eq)
      (:objects x y - object)
      (:init (at x) (linked x x) (linked x y))
      (:goal (at y)))
    """, schema)
    grounded = ground(schema, problem)
    names = [a.name for a in grounded.actions]
    assert names == ["(hop x y)"]


def test_goal_atoms_kept_in_universe():
    schema = parse_domain("""
    (define (domain g)
      (:predicates (p) (unreachable))
      (:action a
        :parameters ()
        :precondition (and)
        :effect (p)))
    """)
    problem = parse_problem(
        "(define (problem p) (:domain g) (:init) (:goal (unreachable)))",
        schema)
    grounded = ground(schema, problem)
    assert "(unreachable)" in grounded.atoms


def test_zero_cost_schema_rejected():
    clause = ProbabilisticClause((Outcome(Fraction(1), (Atom("g"),), ()),))
    schema, problem = nullary_domain([clause])
    bad = DomainSchema(
        schema.name, schema.requirements, schema.types, schema.predicates,
        (ActionSchema("act", (), (), (clause,), cost=Fraction(0)),))
    with pytest.raises(ValueError):
        ground(bad, problem)
