"""Executor tests: replanning rounds, Monte-Carlo aggregation, seed replay,
table reuse, and the stdio protocol."""

import io
import json
import time
from itertools import accumulate

import pytest

from sspkit.executor import (OUTCOME_ACTION_CAP, OUTCOME_DEAD_END,
                             OUTCOME_GOAL, OUTCOME_INVALID, EvalStats,
                             ReplanSession, monte_carlo_evaluate, play_round,
                             round_rng, sample_successor, serve_rounds)
from sspkit.model import outcome_bits, successors
from sspkit.reduction import Determinization, mlo_determinization

from conftest import FLAT_DELTA, NOFLAT_DELTA, load
from sspkit.domains import gen_chain


@pytest.fixture(scope="module")
def goal_at_start():
    _, _, grounded = load(
        "(define (domain d) (:predicates (p)) (:action a :parameters () "
        ":precondition (p) :effect (p)))",
        "(define (problem p) (:domain d) (:init (p)) (:goal (p)))")
    return grounded, Determinization({("a", 0): 0})


def test_initial_state_is_goal(goal_at_start):
    grounded, delta = goal_at_start
    report = ReplanSession(grounded, delta, 0).run_round(*round_rng(0, 0))
    assert report.outcome == OUTCOME_GOAL
    assert report.actions_taken == 0
    assert report.replans == 0


def test_deterministic_problem_executes_plan_verbatim(chain2):
    _, _, grounded = chain2
    delta = Determinization({("step", 0): 0})
    report = ReplanSession(grounded, delta, 0).run_round(*round_rng(0, 0))
    assert report.outcome == OUTCOME_GOAL
    assert report.actions_taken == 2
    assert report.accumulated_cost == 2.0
    assert report.replans == 1  # the initial solve only


def test_deterministic_cost_is_exact():
    schema, problem, grounded = load(*gen_chain(7))
    delta = Determinization({("step", 0): 0})
    stats, _ = monte_carlo_evaluate(grounded, delta, 0, 1e-3, 20, seed=42)
    assert stats.success_probability == 1.0
    assert stats.expected_cost == 7.0


def test_zero_rounds_give_empty_stats(chain2):
    _, _, grounded = chain2
    stats, reports = monte_carlo_evaluate(
        grounded, Determinization({("step", 0): 0}), 0, 1e-3, 0, seed=0)
    assert reports == []
    assert stats == EvalStats(0, 0, 0.0, 0.0)


def test_retry_expected_cost_and_replan_audit(retry):
    _, _, grounded = retry
    delta = Determinization({("attempt", 0): 0})
    stats, reports = monte_carlo_evaluate(grounded, delta, 0, 1e-3, 1000,
                                          seed=11)
    assert stats.success_probability == 1.0
    assert abs(stats.expected_cost - 2.0) <= 0.15
    # one novel state overall: the initial state in the first round
    assert sum(r.replans for r in reports) == 1
    assert reports[0].replans == 1


def test_retry_null_determinization_dead_ends(retry):
    _, _, grounded = retry
    null_delta = Determinization({("attempt", 0): 1})
    stats, reports = monte_carlo_evaluate(grounded, null_delta, 0, 1e-3, 20,
                                          seed=1)
    assert stats.success_probability == 0.0
    assert all(r.outcome == OUTCOME_DEAD_END for r in reports)
    assert stats.expected_cost == 500.0  # cap penalty, zero accumulated cost


def test_action_cap_ends_round(retry):
    _, _, grounded = retry
    delta = Determinization({("attempt", 0): 0})
    # find a seed whose first attempt fails, then cap at one action
    for seed in range(20):
        rng, _ = round_rng(seed, 0)
        if rng.random() >= 0.5:
            break
    report = ReplanSession(grounded, delta, 0).run_round(
        *round_rng(seed, 0), max_actions=1)
    assert report.outcome == OUTCOME_ACTION_CAP
    assert report.actions_taken == 1


def test_tireworld_rounds_all_reach_goal(triangle1):
    _, _, grounded = triangle1
    stats, reports = monte_carlo_evaluate(grounded, FLAT_DELTA, 0, 1e-3, 50,
                                          seed=3)
    assert stats.success_probability == 1.0
    assert all(r.outcome == OUTCOME_GOAL for r in reports)


def test_noflat_determinization_fails_often(triangle2):
    _, _, grounded = triangle2
    stats, _ = monte_carlo_evaluate(grounded, NOFLAT_DELTA, 0, 1e-3, 50,
                                    seed=3)
    assert stats.success_probability < 1.0


def test_trap_k_sensitivity(trap):
    _, _, grounded = trap
    from sspkit.reduction import mlo_determinization
    mlo = mlo_determinization(grounded.schema)
    stats0, _ = monte_carlo_evaluate(grounded, mlo, 0, 1e-3, 100, seed=9)
    stats1, _ = monte_carlo_evaluate(grounded, mlo, 1, 1e-3, 100, seed=9)
    assert stats0.success_probability < 0.5
    assert stats1.success_probability == 1.0


def test_seed_replay_reproduces_round(triangle1):
    _, _, grounded = triangle1
    a = ReplanSession(grounded, FLAT_DELTA, 0).run_round(*round_rng(5, 2))
    b = ReplanSession(grounded, FLAT_DELTA, 0).run_round(*round_rng(5, 2))
    assert a.as_dict() == b.as_dict()


def test_shared_tables_match_fresh_tables(triangle1):
    _, _, grounded = triangle1
    shared = ReplanSession(grounded, FLAT_DELTA, 0)
    for r in range(10):
        rng, label = round_rng(21, r)
        with_shared = shared.run_round(rng, label)
        fresh = ReplanSession(grounded, FLAT_DELTA, 0).run_round(
            *round_rng(21, r))
        assert with_shared.outcome == fresh.outcome
        assert with_shared.actions_taken == fresh.actions_taken
        assert with_shared.accumulated_cost == fresh.accumulated_cost


def test_shared_tables_match_fresh_on_random_fixpoints(exact_solver):
    # with an admissible setup the converged values are fixpoints, so table
    # reuse can never change a round's outcome, provided a round replans
    # at every entry no converged solve vouched for: models 56 and 392 each
    # left such an entry on an abandoned greedy graph, and model 392's
    # shared round 4 looped on it to the action cap
    import random as random_mod
    from randmodels import random_proper_reduced_setup
    from sspkit.solver import SolverConfig

    make_cfg = lambda: SolverConfig(epsilon=1e-6)
    for m in range(400):
        grounded, delta, k, model, _ = random_proper_reduced_setup(
            random_mod.Random(m))
        shared = ReplanSession(grounded, delta, k, cfg=make_cfg())
        for r in range(5):
            rr, label = round_rng(1000 + m, r)
            a = shared.run_round(rr, label, max_actions=200)
            b = ReplanSession(grounded, delta, k, cfg=make_cfg()).run_round(
                *round_rng(1000 + m, r), max_actions=200)
            assert (a.outcome, a.actions_taken, a.accumulated_cost) == \
                (b.outcome, b.actions_taken, b.accumulated_cost)


# ── following the planned-for exceptions ─────────────────────────────────────

def round_events(monkeypatch, session, seed):
    """Play round 0 of ``seed`` on fresh tables. Return the report and the
    round's events in order: ``("solve", root)`` for each replan and
    ``("act", key, action id)`` for each key the round acts from."""
    from sspkit import executor
    from sspkit.solver import SolverTables

    events = []
    solving = False

    class PolicyTable(dict):  # logs the reads made outside a solve
        def __getitem__(self, key):
            action_id = super().__getitem__(key)
            if not solving:
                events.append(("act", key, action_id))
            return action_id

    solve = executor.ff_lao_star

    def recording(model, cfg, tables, root):
        nonlocal solving
        events.append(("solve", root))
        solving = True
        try:
            return solve(model, cfg, tables, root=root)
        finally:
            solving = False

    monkeypatch.setattr(executor, "ff_lao_star", recording)
    session.tables = SolverTables(pi=PolicyTable())
    return session.run_round(*round_rng(seed, 0)), events


def event_counts(events):
    """Each event as ``solve j`` or ``act j``, by the key's exception count."""
    return [f"{event[0]} {event[1].j}" for event in events]


def test_exception_below_the_bound_is_followed_without_a_replan(
        triangle1, monkeypatch):
    # with the MLO determinization a flat tire is primary, so the exception
    # is a move that keeps the tire; seed 2's round meets it once, after
    # four actions, and acts on from the j = 1 keys of its first solve
    _, _, grounded = triangle1
    session = ReplanSession(grounded, mlo_determinization(grounded.schema), 2)
    report, events = round_events(monkeypatch, session, 2)
    assert (report.outcome, report.actions_taken, report.replans) == (
        OUTCOME_GOAL, 8, 1)
    assert event_counts(events) == ["solve 0"] + ["act 0"] * 4 + ["act 1"] * 4


def test_exception_that_reaches_the_bound_replans_from_zero(
        triangle1, monkeypatch):
    # seed 0's round meets an exception at j = 0, then one at j = k - 1 = 1:
    # that one replans from the observed state at j = 0, and no key at
    # j = k is acted from
    _, _, grounded = triangle1
    session = ReplanSession(grounded, mlo_determinization(grounded.schema), 2)
    report, events = round_events(monkeypatch, session, 0)
    assert (report.outcome, report.replans) == (OUTCOME_GOAL, 2)
    assert event_counts(events) == [
        "solve 0", "act 0", "act 1", "solve 0", "act 0", "act 1"]
    (_, (s, _), a), (_, root) = events[2:4]
    primary = outcome_bits(s.bits, a, grounded)[session.model.primary[a]]
    assert root.state.bits != primary


def test_non_primary_outcome_with_the_primary_bits_keeps_the_count(
        monkeypatch):
    # both outcomes of hop give (t2), so the executor cannot tell them
    # apart and reads either as primary: after go's exception the round
    # acts from (t1, 1) and then (t2, 1), not from a (t2, 2) that would
    # reach the bound k = 2 and replan
    _, _, grounded = load(
        "(define (domain echo) (:predicates (s0) (s1) (t1) (t2) (done))"
        " (:action go :parameters () :precondition (s0)"
        "  :effect (and (not (s0)) (probabilistic 0.1 (s1) 0.9 (t1))))"
        " (:action hop :parameters () :precondition (t1)"
        "  :effect (and (not (t1)) (probabilistic 0.5 (t2) 0.5 (t2))))"
        " (:action walk :parameters () :precondition (s1) :effect (done))"
        " (:action fin :parameters () :precondition (t2) :effect (done)))",
        "(define (problem p) (:domain echo) (:init (s0)) (:goal (done)))")
    delta = Determinization({("go", 0): 0, ("hop", 0): 0, ("walk", 0): 0,
                             ("fin", 0): 0})
    session = ReplanSession(grounded, delta, 2)
    report, events = round_events(monkeypatch, session, 0)
    assert (report.outcome, report.replans) == (OUTCOME_GOAL, 1)
    assert [(grounded.actions[event[2]].name, event[1].j)
            for event in events[1:]] == [("(go)", 0), ("(hop)", 1),
                                          ("(fin)", 1)]


def test_draw_above_the_rounded_sum_takes_the_last_successor():
    # ten outcomes of 1/10, added one by one in floats, sum to
    # 0.9999999999999999, so a draw of 1 - 2**-53 passes every partial sum
    # and falls back to the last successor (the builtin sum() rounds to 1.0
    # from Python 3.12 on)
    atoms = " ".join(f"(p{i})" for i in range(10))
    outcomes = " ".join(f"0.1 (p{i})" for i in range(10))
    _, _, grounded = load(
        f"(define (domain d) (:predicates {atoms}) (:action a :parameters () "
        f":effect (probabilistic {outcomes})))",
        "(define (problem p) (:domain d) (:init) (:goal (p0)))")
    dist = successors(grounded.initial_state, 0, grounded)
    assert len(dist) == 10
    *_, total = accumulate(p for _, p in dist)
    assert total == 1 - 2 ** -53

    class LastDraw:
        def random(self):
            return 1 - 2 ** -53

    assert sample_successor(grounded, grounded.initial_state, 0,
                            LastDraw()) == dist[-1][0]


def test_inapplicable_action_reports_invalid_action(chain2):
    _, _, grounded = chain2
    # from (at p0), (step p1 p2) is not applicable
    late = next(a.id for a in grounded.actions if a.name == "(step p1 p2)")
    report = play_round(grounded, lambda bits, step: late, *round_rng(0, 0))
    assert report.outcome == OUTCOME_INVALID
    assert report.actions_taken == 0 and report.accumulated_cost == 0.0


def test_time_budget_diagnostic(retry):
    _, _, grounded = retry
    delta = Determinization({("attempt", 0): 0})
    stats, reports = monte_carlo_evaluate(grounded, delta, 0, 1e-3, 5,
                                          seed=0, time_budget=0.0)
    assert all(r.outcome == "timeout" for r in reports)
    assert all(r.actions_taken == 0 and r.replans == 0 for r in reports)
    assert stats.success_probability == 0.0


def test_goal_at_start_is_reached_after_the_deadline(goal_at_start):
    # a round checks the goal before the deadline, so one whose initial
    # state satisfies the goal needs no time
    grounded, delta = goal_at_start
    stats, reports = monte_carlo_evaluate(grounded, delta, 0, 1e-3, 3,
                                          seed=0, time_budget=1e-9)
    assert [r.outcome for r in reports] == [OUTCOME_GOAL] * 3
    assert stats.success_probability == 1.0


def test_one_deadline_per_evaluation(triangle1, monkeypatch):
    _, _, grounded = triangle1
    deadlines = []
    run_round = ReplanSession.run_round

    def recording(self, rng, label, **kwargs):
        deadlines.append(kwargs["deadline"])
        return run_round(self, rng, label, **kwargs)

    monkeypatch.setattr(ReplanSession, "run_round", recording)
    before = time.monotonic()
    _, reports = monte_carlo_evaluate(grounded, FLAT_DELTA, 0, 1e-3, 3,
                                      seed=0, time_budget=600.0)
    assert len(deadlines) == 3 and len(set(deadlines)) == 1
    assert before + 600.0 <= deadlines[0] <= time.monotonic() + 600.0
    assert all(r.outcome != "timeout" for r in reports)


def test_evaluation_solves_at_its_epsilon_with_the_rest_of_cfg(
        triangle1, monkeypatch):
    from sspkit import executor
    from sspkit.solver import SolverConfig

    _, _, grounded = triangle1
    configs = []
    solve = executor.ff_lao_star

    def recording(model, cfg, *args, **kwargs):
        configs.append(cfg)
        return solve(model, cfg, *args, **kwargs)

    monkeypatch.setattr(executor, "ff_lao_star", recording)
    monte_carlo_evaluate(grounded, FLAT_DELTA, 0, 1e-6, 2, 0,
                         cfg=SolverConfig(m_cap=100))
    assert configs
    assert {(cfg.epsilon, cfg.m_cap) for cfg in configs} == {(1e-6, 100)}


def test_round_stops_at_a_passed_deadline(triangle1):
    _, _, grounded = triangle1
    report = ReplanSession(grounded, FLAT_DELTA, 0).run_round(
        *round_rng(0, 0), deadline=time.monotonic() - 1.0)
    assert report.outcome == "timeout" and report.actions_taken == 0


# ── stdio protocol ───────────────────────────────────────────────────────────

def test_protocol_round_trip(chain2):
    _, _, grounded = chain2
    # scripted client: solve the 2-step chain in both rounds
    actions = ["(step p0 p1)", "(step p1 p2)"] * 2
    reader = io.BytesIO("".join(json.dumps({"action": a}) + "\n"
                                for a in actions).encode())
    writer = io.StringIO()
    stats = serve_rounds(grounded, reader, writer, rounds=2, seed=0)
    assert stats.successes == 2
    lines = [json.loads(l) for l in writer.getvalue().splitlines()]
    assert lines[0]["type"] == "hello"
    assert lines[0]["schema_version"] == 1
    kinds = [l["type"] for l in lines]
    assert kinds.count("round-end") == 2
    assert kinds[-1] == "eval"
    states = [l for l in lines if l["type"] == "state"]
    assert "(at p0)" in states[0]["atoms"]


# json.loads raises a plain ValueError on an integer past the digit limit
@pytest.mark.parametrize("bad_line", [
    json.dumps({"action": "(bogus)"}), "[1]", "not json",
    json.dumps({"action": ["x"]}), "[" * 100_000,
    '{"action": ' + "1" * 5_000 + "}"],
    ids=["unknown-action", "non-object", "not-json", "unhashable-action",
         "too-deep", "long-integer"])
def test_protocol_invalid_and_forfeit(chain2, int_digit_limit, bad_line):
    _, _, grounded = chain2
    msgs = [bad_line + "\n", json.dumps({"action": None}) + "\n"]
    reader = io.BytesIO("".join(msgs).encode())
    writer = io.StringIO()
    stats = serve_rounds(grounded, reader, writer, rounds=2, seed=0)
    lines = [json.loads(l) for l in writer.getvalue().splitlines()]
    ends = [l for l in lines if l["type"] == "round-end"]
    assert ends[0]["outcome"] == OUTCOME_INVALID
    assert ends[1]["outcome"] == OUTCOME_DEAD_END
    assert lines[-1]["type"] == "eval"
    assert stats.successes == 0


def test_protocol_undecodable_line_ends_round_invalid():
    # a line that is not UTF-8 ends its round, and the lines after it are
    # read all the same
    _, _, grounded = load(*gen_chain(1))
    reader = io.BytesIO(b"\xff\xfe\n" + b'{"action": "(step p0 p1)"}\n' * 3)
    writer = io.StringIO()
    stats = serve_rounds(grounded, reader, writer, rounds=2, seed=0)
    lines = [json.loads(l) for l in writer.getvalue().splitlines()]
    ends = [l for l in lines if l["type"] == "round-end"]
    assert [(e["outcome"], e["actions"]) for e in ends] == [
        (OUTCOME_INVALID, 0), (OUTCOME_GOAL, 1)]
    assert stats.successes == 1
    assert lines[-1]["type"] == "eval"
