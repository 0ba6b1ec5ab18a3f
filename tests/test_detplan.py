"""Deterministic planner tests: plan validity, heuristic values and their
equivalence with the layered reference construction, budgets, the
completeness fallback, and the external planner hook."""

import heapq
import math
import os
import random
import re
import stat
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sspkit import ground, make_reduction
from sspkit.detplan import (DEFAULT_EXPANSION_BUDGET, PlanResult,
                            RelaxedTask, det_to_pddl, solve_deterministic,
                            solve_with_external)
from sspkit.domains import gen_chain, gen_trap, gen_triangle_tireworld
from sspkit.errors import ExternalPlannerError
from sspkit.executor import monte_carlo_evaluate
from sspkit.grounding import GroundAction, GroundedProblem, GroundOutcome
from sspkit.learner import enumerate_determinizations
from sspkit.model import is_goal, iter_bits, predicate_of
from sspkit.oracle import enumerate_model
from sspkit.ppddl import DomainSchema, parse_domain, parse_problem
from sspkit.reduction import Determinization, mlo_determinization

from conftest import FLAT_DELTA, load, optimal_plan, validate_plan
from randmodels import determinization_count, random_domain


def det_problem(atoms, actions, goal):
    index = {a: i for i, a in enumerate(atoms)}

    def mask(keys):
        bits = 0
        for key in keys:
            bits |= 1 << index[key]
        return bits

    det_actions = [
        GroundAction(i, name, name, mask(pre), mask(npre), [GroundOutcome(
            Fraction(1), 1.0, mask(add), mask(dele), (0,))])
        for i, (name, pre, npre, add, dele) in enumerate(actions)]
    schema = DomainSchema("test", {}, (), ())
    return GroundedProblem("test", schema, tuple(atoms), det_actions,
                           0, mask(goal)), mask


CHAIN = ( ["s", "m", "g"],
          [("step1", ["s"], [], ["m"], ["s"]),
           ("step2", ["m"], [], ["g"], ["m"])],
          ["g"] )


def test_goal_already_satisfied():
    d, mask = det_problem(*CHAIN)
    result = solve_deterministic(d, mask(["g"]))
    assert result.found and len(result.steps) == 0 and result.cost == 0.0


def test_chain_plan_and_cost():
    d, mask = det_problem(*CHAIN)
    start = mask(["s"])
    result = solve_deterministic(d, start)
    assert result.found
    assert [aid for _, aid in result.steps] == [0, 1]
    assert result.cost == 2.0
    assert validate_plan(d, start, result)
    # greedy plans are at least as long as the breadth-first optimum
    optimal = solve_deterministic(d, start, mode="optimal")
    assert optimal.cost == 2.0
    assert result.cost >= optimal.cost


def test_unknown_mode_rejected():
    d, mask = det_problem(*CHAIN)
    with pytest.raises(ValueError, match="unknown mode 'astar'"):
        solve_deterministic(d, mask(["s"]), mode="astar")


def test_unreachable_goal_is_provable_failure():
    atoms = ["s", "g"]
    actions = [("noop", ["s"], [], ["s"], [])]
    d, mask = det_problem(atoms, actions, ["g"])
    result = solve_deterministic(d, mask(["s"]))
    assert result.status == "failure"


def test_budget_exceeded_is_timeout():
    # 12-bit binary counter: huge space, tiny budget
    n = 12
    atoms = [f"b{i}" for i in range(n)] + ["g"]
    actions = []
    for i in range(n):
        pre = [f"b{j}" for j in range(i)]
        actions.append((f"inc{i}", pre, [f"b{i}"], [f"b{i}"],
                        [f"b{j}" for j in range(i)]))
    d, mask = det_problem(atoms, actions, [f"b{i}" for i in range(n)])
    result = solve_deterministic(d, 0, budget=50, mode="optimal")
    assert result.status == "timeout"
    assert result.expansions >= 50


def test_budget_exceeded_in_the_greedy_phase_is_timeout():
    # the greedy phase walks a 10-step chain one expansion a step, so it
    # meets the budget before the goal and never gets to the restart
    atoms = [f"p{i}" for i in range(11)]
    actions = [(f"step{i}", [f"p{i}"], [], [f"p{i + 1}"], [f"p{i}"])
               for i in range(10)]
    d, mask = det_problem(atoms, actions, ["p10"])
    start = mask(["p0"])
    result = solve_deterministic(d, start, budget=3)
    assert (result.status, result.expansions) == ("timeout", 3)
    result = solve_deterministic(d, start, budget=11)
    assert result.found and result.expansions == 10


def test_heuristic_values():
    d, mask = det_problem(*CHAIN)
    h = lambda bits: d.relaxed_task.evaluate(bits)[0]
    assert h(mask(["g"])) == 0.0
    assert h(mask(["s"])) == 2.0
    assert h(0) == math.inf


def test_heuristic_infinite_implies_solver_failure():
    d, mask = det_problem(*CHAIN)
    assert d.relaxed_task.evaluate(0)[0] == math.inf
    assert solve_deterministic(d, 0).status == "failure"


def test_all_outcomes_heuristic_on_probabilistic_problem(triangle1):
    _, _, grounded = triangle1
    h, _ = grounded.relaxed_task.evaluate(grounded.initial_state)
    # direct route is two moves under the delete relaxation
    assert h == 2.0


def layered_reference(task: RelaxedTask, bits: int):
    """The relaxed planning graph built by rescanning every pending entry on
    every layer, with the same extraction: the construction the bitset
    ``RelaxedTask.evaluate`` must agree with exactly. It reads only the
    task's entries and goal, none of its indexes, bitsets or memos. The
    helpful action ids come back as a bitmask, bit ``id`` set for each."""
    goal_mask = task.goal_mask
    if bits & goal_mask == goal_mask:
        return 0.0, 0
    n_atoms = len(task.atom_names)
    level_of = {atom: 0 for atom in range(n_atoms) if bits >> atom & 1}
    entry_level = {}
    reached = bits
    level = 0
    pending = list(range(len(task.entries)))
    while True:
        new_bits = reached
        remaining = []
        for ei in pending:
            _, pre, add = task.entries[ei]
            if reached & pre == pre:
                entry_level[ei] = level
                new_bits |= add
            else:
                remaining.append(ei)
        pending = remaining
        if new_bits == reached:
            return math.inf, 0
        for atom in range(n_atoms):
            if (new_bits & ~reached) >> atom & 1:
                level_of[atom] = level + 1
        reached = new_bits
        level += 1
        if reached & goal_mask == goal_mask:
            break

    goal_atoms = [atom for atom in range(n_atoms) if goal_mask >> atom & 1]
    max_level = max(level_of[a] for a in goal_atoms)
    subgoals = [set() for _ in range(max_level + 1)]
    for atom in goal_atoms:
        if level_of[atom] > 0:
            subgoals[level_of[atom]].add(atom)
    h = 0.0
    selected = set()
    helpful = 0
    for lvl in range(max_level, 0, -1):
        for atom in sorted(subgoals[lvl]):
            achiever = next((ei for ei, (_, _, add) in enumerate(task.entries)
                             if add >> atom & 1
                             and entry_level.get(ei) == lvl - 1), None)
            if achiever is None or (achiever, lvl - 1) in selected:
                continue
            selected.add((achiever, lvl - 1))
            orig_id, pre, _ = task.entries[achiever]
            h += 1.0
            if lvl == 1:
                helpful |= 1 << orig_id
            for pre_atom in range(n_atoms):
                if pre >> pre_atom & 1 and level_of[pre_atom] > 0:
                    subgoals[level_of[pre_atom]].add(pre_atom)
    return h, helpful


def assert_matches_reference(task: RelaxedTask, states) -> int:
    for bits in states:
        assert task.evaluate(bits) == layered_reference(task, bits), bin(bits)
    return len(states)


def random_domain_tasks(count: int):
    """(task, every reachable state) of ``count`` random domains, for the
    all-outcomes task and the task of every determinization."""
    rng = random.Random(11)
    domains = 0
    while domains < count:
        schema, prob = random_domain(rng, n_atoms=6)
        if determinization_count(schema) > 64:
            continue
        deltas = enumerate_determinizations(schema)
        grounded = ground(schema, prob)
        states = enumerate_model(grounded).labels
        if len(states) < 4:
            continue
        domains += 1
        yield grounded.relaxed_task, states
        for delta in deltas:
            yield make_reduction(grounded, delta, 0).det_problem.relaxed_task, states


def test_heuristic_matches_reference_on_random_domains():
    checked = deepest = 0
    for task, states in random_domain_tasks(36):
        checked += assert_matches_reference(task, states)
        deepest = max(deepest, task.k)
    assert checked > 5000
    # some entry has three preconditions, so the thermometer has a middle row
    assert deepest >= 3


def predicate_groups(task: RelaxedTask) -> list[int]:
    """The atoms that some entry needs, one mask per predicate: the
    heuristic's layer-0 groups."""
    groups: dict[str, int] = {}
    for _, pre, _ in task.entries:
        for atom in iter_bits(pre):
            name = predicate_of(task.atom_names[atom])
            groups[name] = groups.get(name, 0) | 1 << atom
    return list(groups.values())


def assert_every_group_last_matches_reference(task: RelaxedTask, states) -> int:
    """Rebuilds ``task`` once per layer-0 group, with an initial state that
    holds just that group's atoms so that the group comes last, and checks
    each state without that group's atoms (an empty last-group key: the
    memoized prefix rows are used as they are) and then the state itself
    against the reference; returns the evaluations checked."""
    checked = 0
    for group in predicate_groups(task):
        ordered = RelaxedTask(task.atom_names, task.entries, task.goal_mask,
                              init_bits=group)
        assert ordered.last_mask == group
        for bits in states:
            for probe in (bits & ~group, bits):
                assert ordered.evaluate(probe) == layered_reference(
                    ordered, probe), (bin(group), bin(probe))
                checked += 1
    return checked


def test_heuristic_group_order_never_changes_a_result():
    checked = 0
    for task, states in random_domain_tasks(36):
        checked += assert_every_group_last_matches_reference(task, states)
    # triangle-2 has four groups; (spare-in ...) comes last from :init
    _, _, grounded = load(*gen_triangle_tireworld(2))
    states = enumerate_model(grounded).labels
    det = make_reduction(grounded, FLAT_DELTA, 0).det_problem
    for task in (grounded.relaxed_task, det.relaxed_task):
        last_atom = task.atom_names[task.last_mask.bit_length() - 1]
        assert predicate_of(last_atom) == "spare-in"
        checked += assert_every_group_last_matches_reference(task, states)
    assert checked > 50_000


def test_heuristic_memo_is_order_independent():
    _, _, grounded = load(*gen_triangle_tireworld(2))
    states = enumerate_model(grounded).labels
    task = grounded.relaxed_task
    forward, backward = (RelaxedTask(task.atom_names, task.entries,
                                     task.goal_mask, 0)
                         for _ in range(2))
    results = {bits: forward.evaluate(bits) for bits in states}
    assert {bits: backward.evaluate(bits)
            for bits in reversed(states)} == results
    assert len(states) > 100


def evaluated_states(monkeypatch, n: int, k: int, rounds: int):
    """The heuristic's tasks and the states each evaluated in a seeded
    evaluation of triangle-n."""
    visited: dict[int, tuple[RelaxedTask, set[int]]] = {}
    evaluate = RelaxedTask.evaluate

    def recording(task, bits):
        visited.setdefault(id(task), (task, set()))[1].add(bits)
        return evaluate(task, bits)

    monkeypatch.setattr(RelaxedTask, "evaluate", recording)
    _, _, grounded = load(*gen_triangle_tireworld(n))
    monte_carlo_evaluate(grounded, FLAT_DELTA, k, 1e-3, rounds, 1)
    monkeypatch.undo()
    return list(visited.values())


def test_heuristic_matches_reference_on_triangle_evaluation(monkeypatch):
    visited = evaluated_states(monkeypatch, 2, 2, 3)
    # the all-outcomes task and the determinized one
    assert len(visited) == 2
    for task, states in visited:
        assert assert_matches_reference(task, sorted(states)) > 100


def test_heuristic_matches_reference_on_wide_triangle(monkeypatch):
    # triangle-10 at k=0: many locations and spares, long relaxed plans
    checked = 0
    for task, states in evaluated_states(monkeypatch, 10, 0, 4):
        checked += assert_matches_reference(task, sorted(states)[::4])
    assert checked >= 250


@pytest.mark.parametrize("atoms,actions,start,expected", [
    # both achievers of g enter at layer 0: the lower index is counted and
    # helpful
    (["s", "g"], [("first", ["s"], [], ["g"], []),
                  ("second", ["s"], [], ["g"], [])],
     ["s"], (1.0, 1 << 0)),
    (["m", "g"], [("use", ["m"], [], ["g"], []),
                  ("free", [], [], ["m"], [])],
     [], (2.0, 1 << 1)),
    # "again" enters at layer 0 and adds no new atom; it is never chosen
    (["s", "m", "g"], [("again", ["s"], [], ["s"], []),
                       ("step1", ["s"], [], ["m"], []),
                       ("step2", ["m"], [], ["g"], [])],
     ["s"], (2.0, 1 << 1)),
    (*CHAIN[:2], [], (math.inf, 0)),
    (*CHAIN[:2], ["s", "g"], (0.0, 0)),
    # three preconditions: "finish" enters once "make-b" and "make-c" have
    # added the last two
    (["a", "b", "c", "g"], [("make-a", [], [], ["a"], []),
                            ("make-b", ["a"], [], ["b"], []),
                            ("make-c", ["a"], [], ["c"], []),
                            ("finish", ["a", "b", "c"], [], ["g"], [])],
     [], (4.0, 1 << 0)),
    # three preconditions of one predicate, two of them true at layer 0
    (["(on a)", "(on b)", "(on c)", "g"],
     [("put-c", ["(on a)"], [], ["(on c)"], []),
      ("stack", ["(on a)", "(on b)", "(on c)"], [], ["g"], [])],
     ["(on a)", "(on b)"], (2.0, 1 << 0)),
    # one to four preconditions: each entry enters one layer later
    (["p", "q", "r", "s", "g"], [("q", ["p"], [], ["q"], []),
                                 ("r", ["p", "q"], [], ["r"], []),
                                 ("s", ["p", "q", "r"], [], ["s"], []),
                                 ("g", ["p", "q", "r", "s"], [], ["g"], [])],
     ["p"], (4.0, 1 << 0)),
    # four preconditions, all but one true at layer 0
    (["p", "q", "r", "s", "g"], [("s", ["p"], [], ["s"], []),
                                 ("g", ["p", "q", "r", "s"], [], ["g"], [])],
     ["p", "q", "r"], (2.0, 1 << 0)),
], ids=["same-layer-achievers", "no-preconditions", "adds-only-reached",
        "unreachable-goal", "satisfied-goal", "three-preconditions",
        "three-in-one-predicate", "one-to-four-preconditions",
        "four-preconditions"])
def test_heuristic_hand_built_cases(atoms, actions, start, expected):
    d, mask = det_problem(atoms, actions, ["g"])
    bits = mask(start)
    assert d.relaxed_task.k == max(2, *(len(pre) for _, pre, *_ in actions))
    assert d.relaxed_task.evaluate(bits) == expected
    assert layered_reference(d.relaxed_task, bits) == expected


def test_greedy_fallback_to_breadth_first():
    # helpful actions lead into a dead branch; the fallback still solves it
    atoms = ["s", "m", "y", "m2", "g"]
    actions = [
        ("trap", ["s"], [], ["m"], ["s", "y"]),
        ("use-m", ["m", "y"], [], ["g"], []),
        ("side", ["s"], [], ["m2"], ["s"]),
        ("use-m2", ["m2"], [], ["g"], []),
    ]
    d, mask = det_problem(atoms, actions, ["g"])
    start = mask(["s", "y"])
    result = solve_deterministic(d, start)
    assert result.found
    assert validate_plan(d, start, result)
    assert [aid for _, aid in result.steps] == [2, 3]


def uniform_cost_reference(d: GroundedProblem, bits0: int, *,
                           budget: int = DEFAULT_EXPANSION_BUDGET,
                           mode: str = "greedy") -> tuple[PlanResult, bool]:
    """The sub-planner as it was when its restart was a uniform-cost search:
    the same greedy phase, then a ``(g, counter)`` heap with ``best_g`` and
    a skip of superseded entries, every action at cost 1. Returns the
    result and whether the restart ran."""
    if is_goal(bits0, d):
        return PlanResult("plan", []), False
    expansions = 0

    def plan(parents, bits):
        steps = []
        while parents[bits] is not None:
            steps.append(parents[bits])
            bits = parents[bits][0]
        return PlanResult("plan", steps[::-1], expansions)

    if mode == "greedy":
        task = d.relaxed_task
        h0, _ = task.evaluate(bits0)
        if h0 == math.inf:
            return PlanResult("failure", [], expansions), False
        counter = 0
        open_heap = [(h0, counter, bits0)]
        parents = {bits0: None}
        while open_heap:
            _, _, bits = heapq.heappop(open_heap)
            if is_goal(bits, d):
                return plan(parents, bits), False
            expansions += 1
            if expansions >= budget:
                return PlanResult("timeout", [], expansions), False
            _, helpful = task.evaluate(bits)
            apps = d.applicability.applicable(bits)
            for a in [a for a in apps if helpful >> a.id & 1] or apps:
                o = a.outcomes[0]
                nb = (bits & ~o.del_mask) | o.add_mask
                if nb in parents:
                    continue
                hn, _ = task.evaluate(nb)
                if hn == math.inf:
                    continue
                parents[nb] = (bits, a.id)
                counter += 1
                heapq.heappush(open_heap, (hn, counter, nb))

    counter = 0
    open_heap = [(0.0, counter, bits0)]
    parents = {bits0: None}
    best_g = {bits0: 0.0}
    while open_heap:
        g, _, bits = heapq.heappop(open_heap)
        if g > best_g[bits]:
            continue
        if is_goal(bits, d):
            return plan(parents, bits), True
        expansions += 1
        if expansions >= budget:
            return PlanResult("timeout", [], expansions), True
        for a in d.applicability.applicable(bits):
            o = a.outcomes[0]
            nb = (bits & ~o.del_mask) | o.add_mask
            ng = g + 1.0
            if best_g.get(nb, math.inf) <= ng:
                continue
            best_g[nb] = ng
            parents[nb] = (bits, a.id)
            counter += 1
            heapq.heappush(open_heap, (ng, counter, nb))
    return PlanResult("failure", [], expansions), True


def assert_restarts_match_reference(det, states, budgets) -> Counter:
    """``solve_deterministic`` in both modes equals the uniform-cost
    reference, status, steps and expansions, from every state under every
    budget; returns how often the restart ran, by mode and status."""
    ran = Counter()
    for bits in states:
        for budget in budgets:
            for mode in ("optimal", "greedy"):
                expected, restarted = uniform_cost_reference(
                    det, bits, budget=budget, mode=mode)
                result = solve_deterministic(det, bits, budget=budget,
                                             mode=mode)
                assert result == expected, (mode, budget, bin(bits))
                ran[mode, expected.status] += restarted
    return ran


def assert_restarts_ran(ran: Counter) -> None:
    """The restart ran in both modes, found plans, proved failures and met
    the budget."""
    for mode in ("optimal", "greedy"):
        for status in ("plan", "failure", "timeout"):
            assert ran[mode, status] >= 10, (mode, status, ran)


def test_breadth_first_matches_uniform_cost_on_random_domains():
    rng = random.Random(30)
    ran = Counter()
    domains = 0
    while domains < 30:
        schema, prob = random_domain(rng, n_atoms=6)
        if determinization_count(schema) > 64:
            continue
        grounded = ground(schema, prob)
        states = enumerate_model(grounded).labels
        domains += 1
        for delta in enumerate_determinizations(schema):
            det = make_reduction(grounded, delta, 0).det_problem
            ran += assert_restarts_match_reference(
                det, states, (1, 2, 3, 5, 8, 13, 21, DEFAULT_EXPANSION_BUDGET))
    assert_restarts_ran(ran)


def test_breadth_first_matches_uniform_cost_on_bundled_domains():
    """From every reachable state of triangle-2 and trap-10, and every
    fourth of triangle-3, under the most-likely-outcome and the second
    enumerated determinization."""
    ran = Counter()
    for generator, size, stride in ((gen_triangle_tireworld, 2, 1),
                                    (gen_triangle_tireworld, 3, 4),
                                    (gen_trap, 10, 1)):
        schema, _, grounded = load(*generator(size))
        states = enumerate_model(grounded).labels[::stride]
        for delta in (mlo_determinization(schema),
                      enumerate_determinizations(schema)[1]):
            det = make_reduction(grounded, delta, 0).det_problem
            ran += assert_restarts_match_reference(
                det, states, (1, 7, 40, DEFAULT_EXPANSION_BUDGET))
    assert_restarts_ran(ran)


def test_plans_valid_and_no_cheaper_than_oracle():
    rng = random.Random(97)
    solved = failed = 0
    for _ in range(60):
        schema, prob = random_domain(rng, n_atoms=6, deterministic=True)
        grounded = ground(schema, prob)
        delta = Determinization({(a.name, 0): 0
                                 for a in schema.action_schemas})
        det = make_reduction(grounded, delta, 0).det_problem
        result = solve_deterministic(det, grounded.initial_state)
        explicit = enumerate_model(grounded, cap=5000)
        best = optimal_plan(explicit)
        if result.found:
            solved += 1
            assert best is not None
            assert validate_plan(det, grounded.initial_state, result)
            assert result.cost >= best[0] - 1e-9
        else:
            failed += 1
            assert best is None
    assert solved > 5 and failed > 5  # the generator covers both cases


def test_optimal_mode_matches_oracle():
    rng = random.Random(3)
    for _ in range(40):
        schema, prob = random_domain(rng, n_atoms=6, deterministic=True)
        grounded = ground(schema, prob)
        delta = Determinization({(a.name, 0): 0
                                 for a in schema.action_schemas})
        det = make_reduction(grounded, delta, 0).det_problem
        result = solve_deterministic(det, grounded.initial_state,
                                     mode="optimal")
        best = optimal_plan(enumerate_model(grounded, cap=5000))
        if best is None:
            assert result.status == "failure"
        else:
            assert result.found
            assert result.cost == pytest.approx(best[0], abs=1e-9)


def assert_pddl_matches(det, initial_bits):
    """Both ``det_to_pddl`` texts parse, and say what ``det`` says, with atom
    ``i`` written ``(p<i>)`` and action ``j`` written ``(a<j>)``: every
    action's preconditions, adds and deletes, the init and the goal."""
    domain_text, problem_text = det_to_pddl(det, initial_bits)
    schema = parse_domain(domain_text)
    problem = parse_problem(problem_text, schema)

    def names(mask):
        return sorted(det.atoms[i] for i in iter_bits(mask))

    def unindexed(atoms):
        assert all(not atom.args for atom in atoms)
        return sorted(det.atoms[int(atom.pred.removeprefix("p"))]
                      for atom in atoms)

    assert [p.name for p in schema.predicates] == [
        f"p{i}" for i in range(len(det.atoms))]
    assert all(p.params == () for p in schema.predicates)
    assert [a.name for a in schema.action_schemas] == [
        f"a{j}" for j in range(len(det.actions))]
    assert problem.objects == ()
    for parsed, a in zip(schema.action_schemas, det.actions):
        assert parsed.parameters == () and parsed.equalities == ()
        assert unindexed([lit.atom for lit in parsed.precondition
                          if not lit.negated]) == names(a.pre_pos_mask)
        assert unindexed([lit.atom for lit in parsed.precondition
                          if lit.negated]) == names(a.pre_neg_mask)
        ((outcome,),) = parsed.clauses
        assert outcome.probability == 1
        (o,) = a.outcomes
        assert unindexed(outcome.add) == names(o.add_mask)
        assert unindexed(outcome.delete) == names(o.del_mask)
    assert unindexed(problem.init) == names(initial_bits)
    assert unindexed(problem.goal) == names(det.goal_mask)


def assert_det_at_k0_matches(instance):
    schema, _, grounded = instance
    det = make_reduction(grounded, mlo_determinization(schema), 0).det_problem
    assert det.actions
    assert_pddl_matches(det, grounded.initial_state)


def test_grounded_det_task_is_a_subplanner_input(triangle2):
    """The triangle-2 MLO det problem, written by ``det_to_pddl``, parsed
    and grounded, is a problem the sub-planner takes, with shortest plans
    as long as the det problem's own."""
    schema, _, grounded = triangle2
    det = make_reduction(grounded, mlo_determinization(schema), 0).det_problem
    domain_text, problem_text = det_to_pddl(det, grounded.initial_state)
    task_schema = parse_domain(domain_text)
    task = ground(task_schema, parse_problem(problem_text, task_schema))
    assert all(len(a.outcomes) == 1 for a in task.actions)
    result = solve_deterministic(task, task.initial_state, mode="optimal")
    assert result.found and len(result.steps) == 22
    assert validate_plan(task, task.initial_state, result)
    own = solve_deterministic(det, grounded.initial_state, mode="optimal")
    assert len(own.steps) == len(result.steps)


def test_det_to_pddl_reparses(chain2):
    assert_det_at_k0_matches(chain2)


def test_det_to_pddl_reparses_on_triangle_1(triangle1):
    assert_det_at_k0_matches(triangle1)


def test_det_to_pddl_keeps_negative_preconditions_and_empty_lists():
    d, mask = det_problem(
        ["(at a)", "(at b)", "(lit)", "(road a b)"],
        [("go a b", ["(at a)", "(road a b)"], ["(lit)"], ["(at b)"], ["(at a)"]),
         ("flip", [], [], ["(lit)"], [])],
        ["(at b)"])
    assert_pddl_matches(d, mask(["(at a)", "(road a b)"]))
    assert_pddl_matches(d, 0)


CHAIN_1_TASK = ("""\
(define (domain task-domain)
  (:requirements :strips :negative-preconditions)
  (:predicates (p0) (p1) (p2))
  (:action a0
    :parameters ()
    :precondition (p0)
    :effect (and (p1) (not (p0))))
)
""", """\
(define (problem task)
  (:domain task-domain)
  (:init (p0) (p2))
  (:goal (p1))
)
""")
# the second determinization of retry keeps only the no-op outcome, so the
# task has no action and an empty init
RETRY_INDEX_1_TASK = ("""\
(define (domain task-domain)
  (:requirements :strips :negative-preconditions)
  (:predicates (p0))
)
""", """\
(define (problem task)
  (:domain task-domain)
  (:init )
  (:goal (p0))
)
""")


def test_det_to_pddl_text_on_chain_1_and_retry(retry):
    schema, _, grounded = load(*gen_chain(1))
    det = make_reduction(grounded, mlo_determinization(schema), 0).det_problem
    assert det_to_pddl(det, grounded.initial_state) == CHAIN_1_TASK
    schema, _, grounded = retry
    delta = enumerate_determinizations(schema)[1]
    det = make_reduction(grounded, delta, 0).det_problem
    assert det_to_pddl(det, grounded.initial_state) == RETRY_INDEX_1_TASK


def _write_script(tmp_path, body: str) -> str:
    path = tmp_path / "fake-planner.py"
    path.write_text(f"#!{sys.executable}\n{body}")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_external_planner_hook(tmp_path, chain2):
    _, _, grounded = chain2
    delta = Determinization({("step", 0): 0})
    det = make_reduction(grounded, delta, 0).det_problem
    # in plan order, and in upper case: a planner may print names so
    plan = " ".join(f"(A{j})" for j, _ in sorted(enumerate(det.actions),
                                                  key=lambda ja: ja[1].name))
    script = _write_script(tmp_path, f"""
print("; external plan")
for name in "{plan}".split():
    print("  " + name + "  ; a step")
""")
    result = solve_with_external(det, grounded.initial_state,
                                 [sys.executable, script])
    assert result.found
    assert validate_plan(det, grounded.initial_state, result)


DOTTED_DOMAIN = """(define (domain dotted)
  (:requirements :strips)
  (:predicates (ready ?x) (done ?x))
  (:action step :parameters (?x) :precondition (ready ?x) :effect (done ?x)))
"""
DOTTED_PROBLEM = """(define (problem dotted-1) (:domain dotted)
  (:objects p.1 p1)
  (:init (ready p.1) (ready p1))
  (:goal (done p.1)))
"""


def test_external_planner_names_are_unique(tmp_path):
    """Ground actions whose names differ only in punctuation get names of
    their own: the written files parse back, and a plan naming ``(step
    p.1)`` replays to the goal."""
    schema, _, grounded = load(DOTTED_DOMAIN, DOTTED_PROBLEM)
    det = make_reduction(grounded, mlo_determinization(schema), 0).det_problem
    assert [a.name for a in det.actions] == ["(step p.1)", "(step p1)"]
    assert_pddl_matches(det, grounded.initial_state)
    script = _write_script(tmp_path, 'print("(a0)")')
    result = solve_with_external(det, grounded.initial_state,
                                 [sys.executable, script])
    assert result.found
    assert [grounded.actions[i].name for _, i in result.steps] == ["(step p.1)"]


def test_external_planner_failure_and_garbage(tmp_path, chain2):
    _, _, grounded = chain2
    delta = Determinization({("step", 0): 0})
    det = make_reduction(grounded, delta, 0).det_problem
    unsolvable = _write_script(tmp_path, "import sys; sys.exit(10)")
    result = solve_with_external(det, grounded.initial_state,
                                 [sys.executable, unsolvable])
    assert result.status == "failure"
    garbage = _write_script(tmp_path, 'print("(no-such-action)")')
    with pytest.raises(ExternalPlannerError):
        solve_with_external(det, grounded.initial_state,
                            [sys.executable, garbage])


@pytest.mark.parametrize("action, message", [
    ("(step p1 p2)", "inapplicable action 'a{j}' ((step p1 p2)) in plan"),
    ("(step p0 p1)", "external plan does not reach the goal"),
], ids=["inapplicable", "short-of-goal"])
def test_external_plan_is_replayed(tmp_path, chain2, action, message):
    _, _, grounded = chain2
    delta = Determinization({("step", 0): 0})
    det = make_reduction(grounded, delta, 0).det_problem
    j = [a.name for a in det.actions].index(action)
    script = _write_script(tmp_path, f'print("(a{j})")')
    with pytest.raises(ExternalPlannerError,
                       match=re.escape(message.format(j=j))):
        solve_with_external(det, grounded.initial_state,
                            [sys.executable, script])
