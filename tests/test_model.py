"""State model tests: applicability, successor generation, goal tests."""

import random
from fractions import Fraction

import pytest

from sspkit import (NotApplicableError, State, applicable_actions, ground,
                    is_goal, successors)
from sspkit.ppddl import (ActionSchema, Atom, DomainSchema, Literal, Outcome,
                          Predicate, ProblemDef)

from conftest import action_id, state_from_atoms
from randmodels import random_domain


def build(schemas, init=(), goal=("g",)):
    preds = sorted({a.pred for s in schemas for c in s.clauses
                    for o in c for a in o.add + o.delete}
                   | {a.pred for s in schemas for l in s.precondition
                      for a in [l.atom]}
                   | set(init) | set(goal))
    schema = DomainSchema("m", {}, tuple(Predicate(p, ()) for p in preds),
                          tuple(schemas))
    problem = ProblemDef("p", "m", (), tuple(Atom(a) for a in init),
                         tuple(Atom(a) for a in goal))
    return ground(schema, problem)


def act(name, pre, clauses):
    return ActionSchema(name, (),
                        tuple(Literal(Atom(p.lstrip("!")), p.startswith("!"))
                              for p in pre),
                        tuple(clauses))


def det_clause(add=(), delete=()):
    return (Outcome(Fraction(1), tuple(Atom(a) for a in add),
                    tuple(Atom(a) for a in delete)),)


def test_applicable_actions_two_action_state():
    grounded = build([
        act("a1", ["p"], [det_clause(add=["g"])]),
        act("a2", ["q"], [det_clause(add=["g"])]),
    ], init=["p"])
    ids = applicable_actions(grounded.initial_state, grounded)
    assert [grounded.actions[i].name for i in ids] == ["(a1)"]


def test_applicable_actions_empty_when_no_precondition_holds():
    grounded = build([act("a1", ["p"], [det_clause(add=["g"])])], init=[])
    assert applicable_actions(grounded.initial_state, grounded) == []


def test_goal_state_still_reports_applicable_actions(triangle1):
    # goals are absorbing for the executor, not for applicability:
    # at the goal with a flat tire, loading its spare is still applicable
    _, _, grounded = triangle1
    goal_state = state_from_atoms(grounded, (
        ["(vehicle-at l-1-3)"]
        + [a for a in grounded.atoms if a.startswith("(road")
           or a.startswith("(spare")]))
    assert is_goal(goal_state, grounded)
    ids = applicable_actions(goal_state, grounded)
    assert [grounded.actions[i].name for i in ids] == ["(loadtire l-1-3)"]


def test_deterministic_action_single_successor(chain2):
    _, _, grounded = chain2
    ids = applicable_actions(grounded.initial_state, grounded)
    (dist,) = [successors(grounded.initial_state, i, grounded) for i in ids]
    assert len(dist) == 1
    assert dist[0][1] == 1.0


def test_move_car_two_successors(triangle1):
    _, _, grounded = triangle1
    move = action_id(grounded, "(move-car l-1-1 l-2-1)")
    dist = successors(grounded.initial_state, move, grounded)
    assert len(dist) == 2
    assert [round(p, 12) for _, p in dist] == [0.5, 0.5]
    flats = [s for s, _ in dist
             if "(not-flattire)" not in grounded.atom_names(s)]
    assert len(flats) == 1
    for s, _ in dist:
        assert "(vehicle-at l-2-1)" in grounded.atom_names(s)


def test_identical_outcomes_merge():
    clause = (
        Outcome(Fraction(1, 2), (Atom("g"),), ()),
        Outcome(Fraction(1, 2), (Atom("g"),), ()),
    )
    grounded = build([act("a", [], [clause])])
    dist = successors(grounded.initial_state, 0, grounded)
    assert len(dist) == 1
    assert dist[0][1] == pytest.approx(1.0, abs=1e-12)


def test_not_applicable_raises():
    # setup makes p relaxed-reachable so a1 survives grounding, but a1 is
    # not applicable in the initial state itself
    grounded = build([
        act("a1", ["p"], [det_clause(add=["g"])]),
        act("setup", [], [det_clause(add=["p"])]),
    ], init=[])
    a1 = action_id(grounded, "(a1)")
    with pytest.raises(NotApplicableError):
        successors(grounded.initial_state, a1, grounded)


def test_successor_probabilities_sum_to_one_random():
    rng = random.Random(5)
    for _ in range(30):
        schema, prob = random_domain(rng)
        grounded = ground(schema, prob)
        for sample in range(10):
            bits = rng.getrandbits(len(grounded.atoms))
            for action_id in applicable_actions(bits, grounded):
                dist = successors(bits, action_id, grounded)
                assert dist, "applicable action returned empty distribution"
                assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-9)


def test_delete_before_add_semantics():
    # same atom added and deleted in one outcome: add wins
    clause = (Outcome(Fraction(1), (Atom("g"),), (Atom("g"),)),)
    grounded = build([act("a", [], [clause])])
    (state, p), = successors(grounded.initial_state, 0, grounded)
    assert is_goal(state, grounded)


def test_is_goal_cases(triangle1):
    _, _, grounded = triangle1
    assert not is_goal(grounded.initial_state, grounded)
    goal_state = state_from_atoms(grounded, ["(vehicle-at l-1-3)"])
    assert is_goal(goal_state, grounded)


def test_empty_goal_always_true():
    grounded = build([act("a", [], [det_clause(add=["p"])])], goal=())
    assert is_goal(grounded.initial_state, grounded)
    assert is_goal(0, grounded)


def test_state_equality_and_hash():
    a, b, c = State(0b1010), State(0b1010), State(0b1011)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert {a, b, c} == {a, c}
    assert a != 0b1010  # not equal to raw ints


def test_hash_collisions_do_not_merge_states():
    # CPython's int hash is taken modulo 2**61 - 1, so bits 0 and 61 alias;
    # semantics must still come from the bitset
    a, b = State(1), State(1 << 61)
    assert hash(a) == hash(b)
    assert a != b
    table = {a: "a", b: "b"}
    assert len(table) == 2
    assert table[State(1)] == "a" and table[State(1 << 61)] == "b"
