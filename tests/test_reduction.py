"""Reduced-model tests: the augmented transition, determinization handling."""

import random

import pytest

from sspkit import (IncompleteDeterminizationError, ParseError, ground,
                    make_reduction, mlo_determinization)
from sspkit.learner import enumerate_determinizations
from sspkit.reduction import (AugmentedState, Determinization,
                              ReducedModel, State)

from conftest import FLAT_DELTA, action_by_name, state_from_atoms
from randmodels import (determinization_count, random_domain,
                        random_reduced_setup)


def test_transition_below_bound(triangle1):
    _, _, grounded = triangle1
    model = make_reduction(grounded, FLAT_DELTA, 3)
    move = action_by_name(grounded, "(move-car l-1-1 l-2-1)")
    aug = AugmentedState(State(grounded.initial_state), 1)
    succs = model.reduced_successors(aug, move.id)
    assert len(succs) == 2
    by_j = {s.j: p for s, p in succs}
    # primary (flat tire) keeps j=1; the exception moves to j=2
    assert by_j == {1: 0.5, 2: 0.5}
    for s, _ in succs:
        assert "(vehicle-at l-2-1)" in grounded.atom_names(s.state.bits)


def test_transition_at_bound_single_primary(triangle1):
    _, _, grounded = triangle1
    model = make_reduction(grounded, FLAT_DELTA, 2)
    move = action_by_name(grounded, "(move-car l-1-1 l-2-1)")
    aug = AugmentedState(State(grounded.initial_state), 2)
    succs = model.reduced_successors(aug, move.id)
    assert len(succs) == 1
    (s, p), = succs
    assert p == 1.0 and s.j == 2
    assert "(not-flattire)" not in grounded.atom_names(s.state.bits)


def test_k0_reduction_deterministic_everywhere():
    rng = random.Random(23)
    for _ in range(25):
        grounded, delta, _, _ = random_reduced_setup(rng)
        model = make_reduction(grounded, delta, 0)
        for sample in range(10):
            s = State(rng.getrandbits(len(grounded.atoms)))
            for action_id in model.applicable(AugmentedState(s, 0)):
                succs = model.reduced_successors(AugmentedState(s, 0), action_id)
                assert len(succs) == 1
                assert succs[0][1] == 1.0


def test_j_monotone_and_increment_rule():
    rng = random.Random(29)
    for _ in range(25):
        grounded, delta, k, model = random_reduced_setup(rng)
        for sample in range(10):
            s = State(rng.getrandbits(len(grounded.atoms)))
            j = rng.randint(0, k)
            aug = AugmentedState(s, j)
            for action_id in model.applicable(aug):
                for succ, p in model.reduced_successors(aug, action_id):
                    assert succ.j in (j, j + 1)
                    assert succ.j <= k
                    assert 0 < p <= 1 + 1e-12


def test_goal_independent_of_j(triangle1):
    _, _, grounded = triangle1
    model = make_reduction(grounded, FLAT_DELTA, 2)
    goal_state = state_from_atoms(grounded, ["(vehicle-at l-1-3)"])
    for j in range(3):
        assert model.is_goal(AugmentedState(State(goal_state), j))


def test_incomplete_determinization_rejected(triangle1):
    _, _, grounded = triangle1
    with pytest.raises(IncompleteDeterminizationError):
        make_reduction(grounded, Determinization({("move-car", 0): 0}), 0)
    bad = Determinization({("move-car", 0): 5, ("loadtire", 0): 0,
                           ("changetire", 0): 0})
    with pytest.raises(IncompleteDeterminizationError):
        make_reduction(grounded, bad, 0)


@pytest.mark.parametrize("extra", [("move-car", 7), ("nosuch", 0)],
                         ids=["clause-out-of-range", "unknown-action"])
def test_determinization_naming_no_clause_rejected(triangle1, extra):
    schema, _, grounded = triangle1
    delta = Determinization({**FLAT_DELTA.choices, extra: 0})
    with pytest.raises(IncompleteDeterminizationError,
                       match=f"{extra[0]}/{extra[1]} is not an action clause"):
        delta.validate(schema)
    with pytest.raises(IncompleteDeterminizationError):
        make_reduction(grounded, delta, 0)


def test_negative_k_rejected(triangle1):
    _, _, grounded = triangle1
    with pytest.raises(ValueError):
        make_reduction(grounded, FLAT_DELTA, -1)
    # and a primary list that misses an action
    primary = make_reduction(grounded, FLAT_DELTA, 0).primary
    with pytest.raises(ValueError, match="one primary outcome per ground"):
        ReducedModel(grounded, 0, primary[:-1])


def test_determinization_serialization_round_trip():
    delta = Determinization({("move-car", 0): 1, ("loadtire", 0): 0,
                             ("a/b", 2): 3})
    text = delta.to_text()
    assert Determinization.from_text(text) == delta
    assert "move-car/0 -> 1" in text
    with pytest.raises(ParseError) as err:
        Determinization.from_text("garbage line\n", "x.det")
    assert str(err.value) == "x.det:1:1: bad determinization entry 'garbage line'"


def test_determinization_repeated_entry_rejected():
    text = "move-car/0 -> 0\n# comment\nloadtire/0 -> 0\n  move-car/0 -> 1\n"
    with pytest.raises(ParseError) as err:
        Determinization.from_text(text)
    assert str(err.value) == (
        "<input>:4:3: repeated determinization entry for move-car/0")


def test_determinization_comment_runs_to_the_newline():
    # a form feed or a line separator ends no line: the comment goes on
    text = "# flat\x0cmove-car/0 -> 9\u2028loadtire/0 -> 9\nmove-car/0 -> 1\nbad"
    with pytest.raises(ParseError) as err:
        Determinization.from_text(text)
    assert str(err.value) == "<input>:3:1: bad determinization entry 'bad'"
    assert Determinization.from_text(text[:-3]).choices == {("move-car", 0): 1}



def test_determinization_name_with_hash_round_trips():
    delta = Determinization({("attempt#fast", 0): 1, ("move#car", 0): 0})
    text = delta.to_text()
    assert text == "attempt#fast/0 -> 1\nmove#car/0 -> 0\n"
    assert Determinization.from_text(text) == delta


def test_determinization_comment_starts_a_line_or_follows_a_blank():
    text = ("# header\n  # indented\nmove-car/0 -> 0  # note\n"
            "loadtire/0 -> 1\t# tab\n")
    assert Determinization.from_text(text).choices == {
        ("move-car", 0): 0, ("loadtire", 0): 1}
    # a # right after the outcome index is part of the entry
    with pytest.raises(ParseError) as err:
        Determinization.from_text("move-car/0 -> 0# note\n")
    assert str(err.value) == (
        "<input>:1:1: bad determinization entry 'move-car/0 -> 0# note'")

def assert_primary_is_the_chosen_outcome(grounded, delta):
    """Each ground action's primary outcome is its one joint outcome built
    from the clause outcomes the determinization chooses."""
    model = make_reduction(grounded, delta, 0)
    for a in grounded.actions:
        chosen = tuple(delta.choices[a.schema_name, c]
                       for c in range(len(a.outcomes[0].choice)))
        matches = [i for i, o in enumerate(a.outcomes) if o.choice == chosen]
        assert matches == [model.primary[a.id]], a.name


def test_primary_outcome_of_every_determinization(triangle1, trap):
    rng = random.Random(31)
    cases = [(schema, grounded) for schema, _, grounded in (triangle1, trap)]
    while len(cases) < 32:
        schema, problem = random_domain(rng, max_clauses=2)
        if determinization_count(schema) <= 64:
            cases.append((schema, ground(schema, problem)))
    for schema, grounded in cases:
        for delta in enumerate_determinizations(schema):
            assert_primary_is_the_chosen_outcome(grounded, delta)


def test_mlo_determinization(trap):
    schema, _, _ = trap
    delta = mlo_determinization(schema)
    # leap's 0.7 outcome (index 0) beats the 0.3 pit outcome
    assert delta.choices[("leap", 0)] == 0
    assert delta.choices[("walk", 0)] == 0


def test_mlo_tie_breaks_to_lowest_index(retry):
    schema, _, _ = retry
    # attempt: 0.5 success vs 0.5 residual null; tie goes to index 0
    delta = mlo_determinization(schema)
    assert delta.choices[("attempt", 0)] == 0


@pytest.mark.parametrize("instance", ["triangle2", "chain2", "retry", "trap"])
def test_det_problem_is_the_base_problem_reduced_to_its_primaries(
        instance, request):
    """Under every determinization the det problem keeps the base problem's
    atoms, states and masks, and each action whose primary outcome changes
    something, with its base id and that one outcome at probability 1; its
    relaxed task has one entry per kept action whose primary adds atoms."""
    schema, _, grounded = request.getfixturevalue(instance)
    for delta in enumerate_determinizations(schema):
        model = make_reduction(grounded, delta, 0)
        det = model.det_problem
        assert (det.atoms, det.initial_state, det.goal_mask) == (
            grounded.atoms, grounded.initial_state, grounded.goal_mask)
        kept = [(a, a.outcomes[model.primary[a.id]]) for a in grounded.actions]
        kept = [(a, o) for a, o in kept if o.add_mask or o.del_mask]
        assert len(det.actions) == len(kept)
        for d, (a, o) in zip(det.actions, kept):
            (only,) = d.outcomes
            assert only.probability == 1 and only.probability_f == 1.0
            assert (d.id, d.name, d.pre_pos_mask, d.pre_neg_mask) == (
                a.id, a.name, a.pre_pos_mask, a.pre_neg_mask)
            assert (only.add_mask, only.del_mask, only.choice) == (
                o.add_mask, o.del_mask, o.choice)
        assert det.relaxed_task.entries == [
            (a.id, a.pre_pos_mask, o.add_mask) for a, o in kept if o.add_mask]


def test_null_primary_excluded_from_det_problem(retry):
    _, _, grounded = retry
    null_delta = Determinization({("attempt", 0): 1})
    model = make_reduction(grounded, null_delta, 0)
    assert model.det_problem.actions == []
    success = make_reduction(grounded, Determinization({("attempt", 0): 0}), 0)
    assert len(success.det_problem.actions) == 1
