"""Learner tests: enumeration, the selection rule, and end-to-end learning."""

from fractions import Fraction

import pytest

from sspkit import (EnumerationBlowupError, enumerate_determinizations,
                    learning_det, parse_domain, parse_problem)
from sspkit.executor import EvalStats
from sspkit.learner import DetCandidate
from sspkit.ppddl import ActionSchema, Atom, DomainSchema, Outcome, Predicate
from sspkit.reduction import Determinization

from conftest import FLAT_DELTA


def test_triangle_has_two_determinizations(triangle1):
    schema, _, _ = triangle1
    deltas = enumerate_determinizations(schema)
    assert len(deltas) == 2
    assert {d.choices[("move-car", 0)] for d in deltas} == {0, 1}
    for d in deltas:
        assert d.choices[("loadtire", 0)] == 0
        assert d.choices[("changetire", 0)] == 0


def test_deterministic_domain_single_determinization(chain2):
    schema, _, _ = chain2
    assert len(enumerate_determinizations(schema)) == 1


def test_product_rule_two_by_three():
    c2 = (
        Outcome(Fraction(1, 2), (Atom("x"),), ()),
        Outcome(Fraction(1, 2), (Atom("y"),), ()),
    )
    c3 = (
        Outcome(Fraction(1, 3), (Atom("x"),), ()),
        Outcome(Fraction(1, 3), (Atom("y"),), ()),
        Outcome(Fraction(1, 3), (Atom("z"),), ()),
    )
    schema = DomainSchema(
        "d", {}, (Predicate("x", ()), Predicate("y", ()), Predicate("z", ())),
        (ActionSchema("a", (), (), (c2, c3)),))
    deltas = enumerate_determinizations(schema)
    assert len(deltas) == 6
    assert deltas[0].choices == {("a", 0): 0, ("a", 1): 0}
    assert deltas[-1].choices == {("a", 0): 1, ("a", 1): 2}


def test_residual_outcome_is_a_candidate_primary(retry):
    schema, _, _ = retry
    deltas = enumerate_determinizations(schema)
    assert [d.choices[("attempt", 0)] for d in deltas] == [0, 1]


def test_enumeration_blowup():
    clause = tuple(
        Outcome(Fraction(1, 4), (Atom(f"x{i}"),), ()) for i in range(4))
    schema = DomainSchema(
        "big", {}, tuple(Predicate(f"x{i}", ()) for i in range(4)),
        tuple(ActionSchema(f"a{j}", (), (), (clause, clause))
              for j in range(4)))
    with pytest.raises(EnumerationBlowupError) as err:
        enumerate_determinizations(schema)
    assert err.value.count == 4 ** 8
    assert err.value.cap == 4096
    assert err.value.branching[("a0", 0)] == 4


def fake(index, p, cost):
    stats = EvalStats(rounds=50, successes=int(50 * p),
                      success_probability=p, expected_cost=cost)
    return DetCandidate(index, Determinization({}), stats)


def test_selection_rule_cost_breaks_ties_in_probability():
    table = [fake(0, 1.0, 10.0), fake(1, 1.0, 7.0)]
    assert min(table, key=DetCandidate.sort_key).index == 1


def test_selection_rule_probability_dominates_cost():
    table = [fake(0, 1.0, 100.0), fake(1, 0.2, 1.0)]
    assert min(table, key=DetCandidate.sort_key).index == 0


def test_selection_rule_enumeration_order_breaks_full_ties():
    table = [fake(0, 0.5, 9.0), fake(1, 0.5, 9.0)]
    assert min(table, key=DetCandidate.sort_key).index == 0


def test_selection_is_pure_function_of_table():
    table = [fake(0, 0.9, 5.0), fake(1, 1.0, 50.0), fake(2, 1.0, 40.0)]
    first = min(table, key=DetCandidate.sort_key)
    again = min(list(table), key=DetCandidate.sort_key)
    assert first.index == again.index == 2


def test_learning_det_tireworld(triangle1):
    schema, problem, _ = triangle1
    delta, ranked = learning_det(schema, problem, k=0, rounds=50, seed=0)
    assert delta == FLAT_DELTA
    assert ranked[0].stats.success_probability == 1.0
    assert ranked[0].delta == FLAT_DELTA
    # the selected candidate's P equals the table maximum
    assert ranked[0].stats.success_probability == max(
        c.stats.success_probability for c in ranked)


def two_routes_texts(walk_steps: int = 8) -> tuple[str, str]:
    """Retry action (expected cost 2) vs. a deterministic walk; both reach
    the goal with probability 1, so cost decides the selection."""
    cells = [f"c{i}" for i in range(1, walk_steps)]
    preds = " ".join(f"({c})" for c in ["start", "done"] + cells)
    hops = ["start"] + cells
    walks = []
    for i, (a, b) in enumerate(zip(hops, hops[1:] + ["done"])):
        eff = f"(and ({b}) (not ({a})))" if b != "done" else "(done)"
        walks.append(f"(:action walk{i} :parameters () "
                     f":precondition ({a}) :effect {eff})")
    domain = (f"(define (domain tworoutes)\n"
              f"  (:requirements :strips :probabilistic-effects)\n"
              f"  (:predicates {preds})\n"
              f"  (:action risky :parameters () :precondition (start)\n"
              f"    :effect (probabilistic 0.5 (done)))\n"
              + "\n".join(walks) + ")")
    problem = ("(define (problem two) (:domain tworoutes)"
               " (:init (start)) (:goal (done)))")
    return domain, problem


def test_learning_det_prefers_cheaper_route():
    schema = parse_domain(two_routes_texts()[0])
    problem = parse_problem(two_routes_texts()[1], schema)
    delta, ranked = learning_det(schema, problem, k=0, rounds=50, seed=0)
    # both candidates succeed every round; the retry route is cheaper
    assert [c.stats.success_probability for c in ranked] == [1.0, 1.0]
    assert delta.choices[("risky", 0)] == 0
    assert ranked[1].stats.expected_cost == 8.0
    assert abs(ranked[0].stats.expected_cost - 2.0) < 0.6
    # cross-check the winning route's cost against exact value iteration
    from sspkit import ground
    from sspkit.oracle import enumerate_model, value_iteration
    values, _ = value_iteration(enumerate_model(ground(schema, problem)),
                                epsilon=1e-9)
    assert values[0] == pytest.approx(2.0, abs=1e-6)


def test_learning_det_full_determinism(retry):
    schema, problem, _ = retry
    a = learning_det(schema, problem, rounds=30, seed=4)
    b = learning_det(schema, problem, rounds=30, seed=4)
    assert a[0] == b[0]
    assert [(c.index, c.stats) for c in a[1]] == [(c.index, c.stats)
                                                  for c in b[1]]


def test_learning_det_retry_selects_success_outcome(retry):
    schema, problem, _ = retry
    delta, ranked = learning_det(schema, problem, k=0, rounds=40, seed=2)
    assert delta.choices[("attempt", 0)] == 0
    assert ranked[0].stats.success_probability == 1.0
    assert ranked[-1].stats.success_probability == 0.0


def test_all_failed_is_not_an_error():
    schema = parse_domain("""
    (define (domain stuck)
      (:predicates (p) (g))
      (:action spin
        :parameters ()
        :precondition (p)
        :effect (probabilistic 0.5 (not (p)))))
    """)
    problem = parse_problem(
        "(define (problem s) (:domain stuck) (:init (p)) (:goal (g)))",
        schema)
    delta, ranked = learning_det(schema, problem, rounds=10, seed=0)
    assert all(c.stats.success_probability == 0.0 for c in ranked)
    assert delta == ranked[0].delta


def test_candidates_share_the_time_budget_and_cfg(triangle1, monkeypatch):
    from sspkit import learner
    from sspkit.solver import SolverConfig

    schema, problem, _ = triangle1
    cfg = SolverConfig(m_cap=50)
    calls = []

    def recording(problem, delta, k, epsilon, rounds, seed, **kwargs):
        calls.append((delta, kwargs["time_budget"], kwargs["cfg"]))
        return EvalStats(rounds, 0, 0.0, 0.0), []

    monkeypatch.setattr(learner, "monte_carlo_evaluate", recording)
    _, ranked = learning_det(schema, problem, rounds=3, time_budget=10.0,
                             cfg=cfg)
    deltas = enumerate_determinizations(schema)
    assert calls == [(delta, 10.0 / len(deltas), cfg) for delta in deltas]
    assert [c.index for c in ranked] == list(range(len(deltas)))


def test_parallel_workers_match_sequential(retry):
    schema, problem, _ = retry
    seq_delta, seq_ranked = learning_det(schema, problem, rounds=20, seed=6)
    par_delta, par_ranked = learning_det(schema, problem, rounds=20, seed=6,
                                         workers=2)
    assert par_delta == seq_delta
    assert [(c.index, c.stats) for c in par_ranked] == \
        [(c.index, c.stats) for c in seq_ranked]


def test_workers_are_clamped_to_the_candidate_count(triangle1, chain2,
                                                   monkeypatch):
    # a pool starts all its workers at once, so it must not get more than
    # there are candidates; the stand-in pool starts no process at all
    from sspkit import learner

    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(learner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(learner, "monte_carlo_evaluate",
                        lambda problem, delta, k, epsilon, rounds, seed, **_:
                        (EvalStats(rounds, 0, 0.0, 0.0), []))
    for (schema, problem, _), count in ((triangle1, 2), (chain2, 1)):
        assert len(enumerate_determinizations(schema)) == count
        _, ranked = learning_det(schema, problem, rounds=1, workers=10_000)
        assert [c.index for c in ranked] == list(range(count))
    # one candidate needs no pool
    assert made == [2]
