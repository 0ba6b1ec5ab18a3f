"""Oracle tests: enumeration, exact value iteration, optimal search, and
the proper-policy (almost-sure reachability) check."""

import statistics

import pytest

from sspkit import ground, make_reduction, oracle
from sspkit.errors import CapExceededError, IterationLimitError
from sspkit.executor import round_rng, sample_successor
from sspkit.model import is_goal
from sspkit.oracle import enumerate_model, value_iteration
from sspkit.reduction import Determinization

from conftest import (FLAT_DELTA, almost_sure_winning, is_deterministic, load,
                      optimal_plan, proper_policy_exists)


def test_enumerate_chain(chain2):
    _, _, grounded = chain2
    explicit = enumerate_model(grounded)
    assert explicit.n_states == 3
    assert explicit.goal == [False, False, True]
    assert is_deterministic(explicit)


def test_enumerate_reduced_at_most_k_plus_one_copies(triangle1, retry):
    _, _, grounded = triangle1
    base = enumerate_model(grounded)
    reduced = enumerate_model(make_reduction(grounded, FLAT_DELTA, 1))
    assert reduced.n_states <= 2 * base.n_states
    # one-action problem at bound 2: at most three copies of each base state
    _, _, retry_grounded = retry
    retry_base = enumerate_model(retry_grounded)
    delta = Determinization({("attempt", 0): 0})
    retry_reduced = enumerate_model(make_reduction(retry_grounded, delta, 2))
    assert retry_reduced.n_states <= 3 * retry_base.n_states


def test_k0_reduction_has_out_degree_one(triangle1):
    _, _, grounded = triangle1
    explicit = enumerate_model(make_reduction(grounded, FLAT_DELTA, 0))
    assert is_deterministic(explicit)


def test_cap_exceeded(triangle1):
    _, _, grounded = triangle1
    with pytest.raises(CapExceededError):
        enumerate_model(grounded, cap=10)


def test_explicit_rows_are_proper_distributions(triangle1, trap):
    for grounded in (triangle1[2], trap[2]):
        explicit = enumerate_model(grounded)
        for rows in explicit.actions:
            for _, succs in rows:
                assert abs(sum(p for _, p in succs) - 1.0) <= 1e-12


def test_vi_all_goal_model():
    schema, problem, grounded = load(
        "(define (domain d) (:predicates (p)) (:action a :parameters () "
        ":precondition (p) :effect (p)))",
        "(define (problem p) (:domain d) (:init (p)) (:goal (and)))")
    explicit = enumerate_model(grounded)
    values, policy = value_iteration(explicit)
    assert values == [0.0]
    assert policy == [-1]


def test_vi_geometric_retry(retry):
    _, _, grounded = retry
    explicit = enumerate_model(grounded)
    values, policy = value_iteration(explicit, epsilon=1e-10)
    assert values[0] == pytest.approx(2.0, abs=1e-8)


def test_vi_raises_at_its_sweep_bound(retry, monkeypatch):
    # each sweep halves the retry model's gap to its value 2, so five
    # sweeps end with a residual of 1/16
    _, _, grounded = retry
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 5)
    with pytest.raises(IterationLimitError,
                       match=r"^value iteration exceeded 5 sweeps$"):
        value_iteration(enumerate_model(grounded), epsilon=1e-10)


def test_vi_dead_end_converges_to_exact_cap():
    schema, problem, grounded = load(
        """(define (domain d) (:predicates (p) (g))
            (:action spin :parameters () :precondition (p)
              :effect (and (not (p)))))""",
        "(define (problem p) (:domain d) (:init (p)) (:goal (g)))")
    explicit = enumerate_model(grounded)
    values, policy = value_iteration(explicit, m_cap=500.0)
    assert all(v == 500.0 for v in values)


def test_optimal_plan_chain(chain2):
    _, _, grounded = chain2
    explicit = enumerate_model(grounded)
    cost, steps = optimal_plan(explicit)
    assert cost == 2.0
    assert len(steps) == 2


def test_optimal_plan_at_goal_and_unreachable():
    schema, problem, grounded = load(
        "(define (domain d) (:predicates (g)) (:action a :parameters () "
        ":precondition (g) :effect (g)))",
        "(define (problem p) (:domain d) (:init (g)) (:goal (g)))")
    explicit = enumerate_model(grounded)
    assert optimal_plan(explicit) == (0.0, [])

    schema, problem, grounded = load(
        """(define (domain d) (:predicates (p) (g))
            (:action a :parameters () :precondition (p)
              :effect (not (p))))""",
        "(define (problem p) (:domain d) (:init (p)) (:goal (g)))")
    assert optimal_plan(enumerate_model(grounded)) is None


def test_optimal_plan_rejects_probabilistic(retry):
    _, _, grounded = retry
    with pytest.raises(ValueError):
        optimal_plan(enumerate_model(grounded))


def test_proper_policy_checks(retry, trap):
    assert proper_policy_exists(enumerate_model(retry[2]))
    # the trap's base problem is proper (walk around), but the pit is not
    explicit = enumerate_model(trap[2])
    winning = almost_sure_winning(explicit)
    assert 0 in winning
    assert len(winning) < explicit.n_states


def test_unavoidable_dead_end_is_not_proper():
    schema, problem, grounded = load(
        """(define (domain d) (:predicates (p) (g))
            (:action gamble :parameters () :precondition (p)
              :effect (probabilistic 0.5 (g) 0.5 (not (p)))))""",
        "(define (problem p) (:domain d) (:init (p)) (:goal (g)))")
    explicit = enumerate_model(grounded)
    assert not proper_policy_exists(explicit)


def test_vi_on_k0_reduction_equals_optimal_plan(triangle1):
    _, _, grounded = triangle1
    explicit = enumerate_model(make_reduction(grounded, FLAT_DELTA, 0))
    values, _ = value_iteration(explicit, epsilon=1e-10)
    cost, _ = optimal_plan(explicit)
    assert values[0] == pytest.approx(cost, abs=1e-8)


def test_vi_greedy_policy_matches_simulation(retry):
    # seeded rollouts of the greedy VI policy agree with V(s0)
    _, _, grounded = retry
    explicit = enumerate_model(grounded)
    values, policy = value_iteration(explicit, epsilon=1e-10)
    index = {explicit.labels[i]: i for i in range(explicit.n_states)}
    costs = []
    for r in range(10_000):
        rng, _ = round_rng(77, r)
        s = grounded.initial_state
        total = 0.0
        for _ in range(10_000):
            if is_goal(s, grounded):
                break
            action_id = policy[index[s]]
            total += 1.0
            s = sample_successor(grounded, s, action_id, rng)
        costs.append(total)
    mean = statistics.fmean(costs)
    se = statistics.stdev(costs) / len(costs) ** 0.5
    assert abs(mean - values[0]) <= 3 * se
