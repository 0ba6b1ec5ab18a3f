"""Solver tests: Q values, the two update regimes, sweep procedures,
agreement with exact value iteration on small models, and solves from
many roots into shared tables."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from sspkit import (NOP, SolveReport, SolverConfig, SolverTables,
                    ff_bellman_update, ff_lao_star, ff_sweep, ground,
                    make_reduction, mlo_determinization, parse_domain,
                    parse_problem, policy_size, solver)
from sspkit.detplan import solve_deterministic
from sspkit.executor import sample_successor
from sspkit.model import successors
from sspkit.oracle import enumerate_model, value_iteration
from sspkit.ppddl import (ActionSchema, Atom, DomainSchema, Literal, Outcome,
                          Predicate, ProblemDef)
from sspkit.reduction import AugmentedState, Determinization, State
from sspkit.solver import INF

from conftest import FLAT_DELTA, action_by_name, state_from_atoms
from randmodels import random_proper_reduced_setup, random_reduced_setup


def build_problem(schemas, init, goal):
    preds = sorted({a.pred for s in schemas for c in s.clauses
                    for o in c for a in o.add + o.delete}
                   | {l.atom.pred for s in schemas for l in s.precondition}
                   | set(init) | set(goal))
    schema = DomainSchema("s", {}, tuple(Predicate(p, ()) for p in preds),
                          tuple(schemas))
    problem = ProblemDef("p", "s", (), tuple(Atom(a) for a in init),
                         tuple(Atom(a) for a in goal))
    return ground(schema, problem)


def det_action(name, pre, add, delete=()):
    return ActionSchema(
        name, (), tuple(Literal(Atom(p)) for p in pre),
        ((Outcome(Fraction(1), tuple(Atom(a) for a in add),
                  tuple(Atom(a) for a in delete)),),))


def trivial_delta(grounded):
    return Determinization({(a.name, c): 0
                            for a in grounded.schema.action_schemas
                            for c in range(len(a.clauses))})


def chain_model(k=0):
    grounded = build_problem(
        [det_action("step1", ["s"], ["m"], ["s"]),
         det_action("step2", ["m"], ["g"], ["m"])],
        init=["s"], goal=["g"])
    return grounded, make_reduction(grounded, trivial_delta(grounded), k)


def q_value(tables, model, cfg, aug, action_id):
    """The action's cost 1 plus probability-weighted successor values; a
    successor without a stored value is valued as a backup values it: 0 at
    a goal, else the solver's heuristic."""
    total = 1.0
    for succ, p in model.reduced_successors(aug, action_id):
        value = tables.v.get(succ)
        if value is None:
            value = (0.0 if model.is_goal(succ)
                     else solver._heuristic(model, cfg, succ.state.bits))
        total += p * value
    return total


def test_q_value_all_goal_successors(exact_solver):
    grounded = build_problem([det_action("win", ["s"], ["g"], ["s"])],
                             init=["s"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 0)
    tables = SolverTables()
    cfg = SolverConfig()
    assert q_value(tables, model, cfg, model.initial, 0) == 1.0


def test_q_value_k0_chain_with_stored_value(exact_solver):
    grounded, model = chain_model(0)
    tables = SolverTables()
    cfg = SolverConfig()
    mid = AugmentedState(State(state_from_atoms(grounded, ["(m)"])), 0)
    tables.v[mid] = 1.0
    step1 = action_by_name(grounded, "(step1)")
    assert q_value(tables, model, cfg, model.initial, step1.id) == 2.0


def test_q_value_split_successors(exact_solver):
    clause = (
        Outcome(Fraction(1, 2), (Atom("x"),), (Atom("s"),)),
        Outcome(Fraction(1, 2), (Atom("y"),), (Atom("s"),)),
    )
    schemas = [ActionSchema("split", (), (Literal(Atom("s")),), (clause,))]
    grounded = build_problem(schemas, init=["s"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 2)
    tables = SolverTables()
    cfg = SolverConfig()
    x = AugmentedState(State(state_from_atoms(grounded, ["(x)"])), 0)
    y = AugmentedState(State(state_from_atoms(grounded, ["(y)"])), 1)
    tables.v[x] = 4.0
    tables.v[y] = 10.0
    assert q_value(tables, model, cfg, model.initial, 0) == 8.0


def test_bellman_at_bound_memoizes_whole_plan(exact_solver):
    grounded, model = chain_model(0)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    residual = ff_bellman_update(tables, model, cfg, model.initial, report)
    assert residual == 2.0
    mid = AugmentedState(State(state_from_atoms(grounded, ["(m)"])), 0)
    assert tables.v[model.initial] == 2.0
    assert tables.v[mid] == 1.0
    step1 = action_by_name(grounded, "(step1)")
    step2 = action_by_name(grounded, "(step2)")
    assert tables.pi[model.initial] == step1.id
    assert tables.pi[mid] == step2.id
    # memoized: a second update does not change anything
    assert ff_bellman_update(tables, model, cfg, model.initial, report) == 0.0


def test_bellman_at_bound_failure_sets_cap_and_nop(exact_solver):
    grounded = build_problem([det_action("spin", ["s"], ["x"], [])],
                             init=["s"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 0)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    ff_bellman_update(tables, model, cfg, model.initial, report)
    assert tables.v[model.initial] == 500.0
    assert tables.pi[model.initial] == NOP


def test_bellman_dead_end_below_bound(exact_solver):
    grounded = build_problem([det_action("go", ["other"], ["g"], [])],
                             init=["s"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 1)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    ff_bellman_update(tables, model, cfg, model.initial, report)
    assert tables.v[model.initial] == cfg.m_cap
    assert tables.pi[model.initial] == NOP


def test_bellman_goal_short_circuits(exact_solver):
    grounded, model = chain_model(1)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    goal = AugmentedState(State(state_from_atoms(grounded, ["(g)"])), 1)
    tables.v[goal] = 7.0
    assert ff_bellman_update(tables, model, cfg, goal, report) == 7.0
    assert tables.v[goal] == 0.0
    assert tables.pi[goal] == NOP


def test_first_update_below_bound_reads_no_estimate_of_its_state(monkeypatch):
    """A tip's update overwrites its value at once, so the heuristic is
    computed only for the successors its backup reads, and the residual
    is taken against 0."""
    grounded, model = chain_model(1)
    evaluated = []
    heuristic = solver._heuristic

    def recording(model, cfg, bits):
        evaluated.append(bits)
        return heuristic(model, cfg, bits)

    monkeypatch.setattr(solver, "_heuristic", recording)
    tables = SolverTables()
    residual = ff_bellman_update(tables, model, SolverConfig(),
                                 model.initial, SolveReport())
    assert evaluated == [state_from_atoms(grounded, ["(m)"])]
    assert residual == tables.v[model.initial] == 2.0


def converge(tables, model, cfg, report):
    """Sweep from the initial state until the error is below epsilon."""
    for _ in range(100):
        if ff_sweep(tables, model, cfg, model.initial, report) < cfg.epsilon:
            return
    raise AssertionError("no convergence in 100 sweeps")


def test_states_are_bitsets_outside_the_reduced_model(triangle1):
    """The base model, the simulator and the sub-planner pass ``int``
    bitsets; only the solver's keys wrap them in ``State``."""
    _, _, grounded = triangle1
    start = grounded.initial_state
    assert type(start) is int
    move = action_by_name(grounded, "(move-car l-1-1 l-2-1)")
    assert all(type(bits) is int
               for bits, _ in successors(start, move.id, grounded))
    rng = random.Random(0)
    assert all(type(sample_successor(grounded, start, move.id, rng)) is int
               for _ in range(10))
    model = make_reduction(grounded, FLAT_DELTA, 0)
    result = solve_deterministic(model.det_problem, start)
    assert result.found and result.steps[0][0] == start
    assert all(type(bits) is int for bits, _ in result.steps)
    tables = SolverTables()
    report = SolveReport()
    ff_bellman_update(tables, model, SolverConfig(), model.initial, report)
    assert report.subplanner_calls == 1
    assert model.initial == AugmentedState(State(start), 0)
    assert {aug: (tables.v[aug], tables.pi[aug]) for aug in tables.pi} == {
        AugmentedState(State(bits), 0): (float(len(result.steps) - i),
                                         action_id)
        for i, (bits, action_id) in enumerate(result.steps)}
    assert all(type(aug.state) is State for aug in tables.pi)


def test_expand_counts(exact_solver):
    grounded, model = chain_model(1)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    # the sweep descends through each tip it expands, so s, m and the goal
    # are all tips of the first one; the post-order updates of m and s then
    # bring the root its child's new value
    assert ff_sweep(tables, model, cfg, model.initial, report) == INF
    assert report.expansions == 3
    assert tables.v[model.initial] == 2.0
    assert not tables.solved
    # closed policy: nothing left to expand, and the graph is solved
    assert ff_sweep(tables, model, cfg, model.initial, report) == 0.0
    assert report.expansions == 3
    assert tables.v[model.initial] == 2.0
    assert tables.solved == set(tables.pi)


def test_convergence_fixpoint_matches_vi(exact_solver):
    grounded, model = chain_model(1)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    converge(tables, model, cfg, report)
    values, _ = value_iteration(enumerate_model(model), epsilon=1e-10)
    assert tables.v[model.initial] == pytest.approx(values[0], abs=1e-9)
    assert values[0] == 2.0


def test_convergence_cases(exact_solver):
    grounded, model = chain_model(1)
    tables = SolverTables()
    cfg = SolverConfig()
    report = SolveReport()
    # unexpanded root
    assert ff_sweep(tables, model, cfg, model.initial, report) == INF
    converge(tables, model, cfg, report)


def test_convergence_detects_policy_change(exact_solver):
    # two routes; make the stored policy point at the bad one
    grounded = build_problem(
        [det_action("slow1", ["s"], ["m"], ["s"]),
         det_action("slow2", ["m"], ["g"], ["m"]),
         det_action("fast", ["s"], ["g"], ["s"])],
        init=["s"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 1)
    cfg = SolverConfig()
    report = SolveReport()
    tables = SolverTables()
    converge(tables, model, cfg, report)
    fast = action_by_name(grounded, "(fast)")
    slow1 = action_by_name(grounded, "(slow1)")
    assert tables.pi[model.initial] == fast.id
    tables.pi[model.initial] = slow1.id
    tables.v[model.initial] = 0.0
    assert ff_sweep(tables, model, cfg, model.initial, report) == INF


def test_lao_immediate_on_initial_goal(exact_solver):
    grounded = build_problem([det_action("noop", ["g"], ["g"], [])],
                             init=["g"], goal=["g"])
    model = make_reduction(grounded, trivial_delta(grounded), 0)
    tables, report = ff_lao_star(model, SolverConfig())
    assert report.v_root == 0.0


def test_lao_tireworld_k0_matches_reduction_oracle(triangle1):
    _, _, grounded = triangle1
    model = make_reduction(grounded, FLAT_DELTA, 0)
    tables, report = ff_lao_star(model, SolverConfig())
    explicit = enumerate_model(model)
    values, _ = value_iteration(explicit)
    assert report.v_root == pytest.approx(values[0], abs=1e-6)
    assert report.v_root == 10.0
    # the policy walks the spare-tire route to the goal
    aug = model.initial
    seen = set()
    while not model.is_goal(aug):
        assert aug not in seen
        seen.add(aug)
        (aug, p), = model.reduced_successors(aug, tables.pi[aug])
        assert p == 1.0
    assert len(seen) == 10


def test_lao_matches_vi_on_random_proper_models(exact_solver):
    rng = random.Random(123)
    cfg = SolverConfig(epsilon=1e-6)
    for _ in range(15):
        grounded, delta, k, model, explicit = random_proper_reduced_setup(rng)
        values, _ = value_iteration(explicit, epsilon=1e-9)
        tables, report = ff_lao_star(model, cfg)
        assert report.v_root == pytest.approx(values[0], abs=1e-3)


def test_policy_size_counts_the_states_the_policy_reaches():
    """``policy_size`` matches a count over the enumerated model that
    follows the policy from the initial state, past the bound too."""
    rng = random.Random(29)
    cfg = SolverConfig()
    for _ in range(60):
        _, _, _, model, explicit = random_proper_reduced_setup(rng)
        tables, _ = ff_lao_star(model, cfg)
        reached = {explicit.initial}
        stack = [explicit.initial]
        count = 0
        while stack:
            i = stack.pop()
            action_id = tables.pi.get(explicit.labels[i])
            if action_id is None:
                continue
            count += 1
            if action_id == NOP:
                continue
            succs, = [succs for a, succs in explicit.actions[i]
                      if a == action_id]
            for t, _ in succs:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        assert policy_size(tables, model, model.initial) == count


def test_values_capped_and_plan_cache_consistent(exact_solver):
    rng = random.Random(7)
    cfg = SolverConfig()
    for _ in range(15):
        grounded, delta, k, model, _ = random_proper_reduced_setup(rng)
        tables, _ = ff_lao_star(model, cfg)
        assert all(0.0 <= v <= cfg.m_cap for v in tables.v.values())
        # tail entries either carry NOP at the cap, or their policy replays
        # to the goal (or another cached terminal) accounting for the full
        # stored value along the way
        tail = [aug for aug in tables.pi
                if aug.j == model.k and not model.is_goal(aug)]
        for aug in tail:
            action = tables.pi[aug]
            if action == NOP:
                assert tables.v[aug] == cfg.m_cap
                continue
            cost, current = 0.0, aug
            for _ in range(10_000):
                if model.is_goal(current) or tables.pi[current] == NOP:
                    break
                step = tables.pi[current]
                cost += 1.0
                (current, p), = model.reduced_successors(current, step)
                assert current in tables.pi or model.is_goal(current)
            assert model.is_goal(current)
            if all(tables.v[t] < cfg.m_cap for t in tail):
                assert cost == pytest.approx(tables.v[aug], abs=1e-6)


def test_warm_start_reuses_tables(triangle1):
    _, _, grounded = triangle1
    model = make_reduction(grounded, FLAT_DELTA, 0)
    cfg = SolverConfig()
    tables, first = ff_lao_star(model, cfg)
    # resolving from an on-policy state expands nothing new
    mid = next(aug for aug in tables.pi
               if aug != model.initial and tables.pi[aug] != NOP)
    _, second = ff_lao_star(model, cfg, tables, root=mid)
    assert second.expansions == 0


def test_iteration_limit_at_the_sweep_bound(exact_solver, monkeypatch):
    from sspkit.errors import IterationLimitError
    grounded, model = chain_model(1)
    monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
    with pytest.raises(IterationLimitError,
                       match=r"^exceeded 1 update sweeps$"):
        ff_lao_star(model, SolverConfig())


@pytest.mark.parametrize("field", ["epsilon", "m_cap"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")],
                         ids=["zero", "negative", "nan"])
def test_solver_config_rejects_non_positive(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("k", [0, 1], ids=["k0", "k1"])
def test_expansion_updates_a_bound_tip_once(monkeypatch, triangle2, k):
    """A sweep descends through a tip that its update gives a policy
    action below the bound, which updates that tip again in post-order.
    A tip at the bound is not entered again: its sub-planner call already
    wrote its entry. No sweep updates a final leaf, a state whose entry is
    ``NOP`` or at the bound."""
    schema, _, grounded = triangle2
    model = make_reduction(grounded, mlo_determinization(schema), k)
    tables, cfg, report = SolverTables(), SolverConfig(), SolveReport()
    update = solver.ff_bellman_update
    sweeps: list[Counter] = []
    bound_tips = final_leaves = 0

    def counted(tables, model, cfg, aug, report):
        nonlocal bound_tips, final_leaves
        action_id = tables.pi.get(aug)
        bound_tips += aug.j == model.k and action_id is None
        final_leaves += action_id is not None and (action_id == NOP
                                                   or aug.j == model.k)
        sweeps[-1][aug] += 1
        return update(tables, model, cfg, aug, report)

    monkeypatch.setattr(solver, "ff_bellman_update", counted)
    error = INF
    while error >= cfg.epsilon:
        sweeps.append(Counter())
        error = ff_sweep(tables, model, cfg, model.initial, report)
    assert bound_tips > 0
    assert final_leaves == 0
    assert all(n == 1 for calls in sweeps for aug, n in calls.items()
               if aug.j == k)
    below = {n for calls in sweeps for aug, n in calls.items() if aug.j < k}
    assert below == ({1, 2} if k else set())


# ── solves from many roots into shared tables ───────────────────────────────

INPUTS = Path(__file__).resolve().parents[1] / "benchmark" / "inputs"


def assert_policy_below_bound_from_records(model, tables):
    """Every policy action below the bound names an action of the state's
    backup record, where ``ff_sweep`` takes its successors from."""
    for aug, action_id in tables.pi.items():
        if aug.j < model.k and action_id != NOP:
            assert action_id in [a for a, _ in tables.records[aug]]


def greedy_graph(tables, model, root):
    """The states that a sweep from ``root`` reaches: the walk follows the
    policy and stops at tips, at ``NOP`` entries and at the bound."""
    reached = {root}
    stack = [root]
    while stack:
        aug = stack.pop()
        action_id = tables.pi.get(aug)
        if action_id is None or action_id == NOP or aug.j >= model.k:
            continue
        for succ, _ in model.reduced_successors(aug, action_id):
            if succ not in reached:
                reached.add(succ)
                stack.append(succ)
    return reached


def assert_solves(model, roots_of, plant=lambda tables: None):
    """Solve one model from each root into one set of tables given
    ``plant``. After every solve each policy action below the bound comes
    from its state's record, the zero-exception states of the greedy graph
    from the root are solved, and the model holds no search state."""
    cfg = SolverConfig()
    tables = SolverTables()
    plant(tables)
    for root in roots_of(model, tables):
        ff_lao_star(model, cfg, tables, root)
        assert_policy_below_bound_from_records(model, tables)
        assert {aug for aug in greedy_graph(tables, model, root)
                if aug.j == 0} <= tables.solved
        assert set(vars(model)) <= {"problem", "k", "primary", "initial",
                                    "det_problem"}
    return tables


def rollout_roots(seed: int, count: int):
    """The initial state, then off-policy states met by sampling the
    base model's outcomes under the current policy, as replanning does."""
    def roots(model, tables):
        rng = random.Random(seed)
        aug = model.initial
        for _ in range(count):
            yield aug
            for _ in range(50):
                action_id = tables.pi[aug]
                if action_id == NOP:
                    break
                dist = successors(aug.state.bits, action_id, model.problem)
                bits = rng.choices([t for t, _ in dist],
                                   [p for _, p in dist])[0]
                aug = AugmentedState(State(bits), 0)
                if aug not in tables.pi:
                    break
            if aug in tables.pi or model.is_goal(aug):
                aug = model.initial
    return roots


def benchmark_input(domain, problem, k):
    schema = parse_domain((INPUTS / f"{domain}-domain.ppddl").read_text())
    grounded = ground(schema, parse_problem(
        (INPUTS / f"{problem}-problem.ppddl").read_text(), schema))
    return make_reduction(grounded, mlo_determinization(schema), k)


@pytest.mark.parametrize("domain, problem, k", [
    ("triangle", "triangle-4", 1), ("triangle", "triangle-4", 2),
    ("trap", "trap-10", 1)], ids=["triangle-4-k1", "triangle-4-k2",
                                   "trap-10-k1"])
def test_rollout_root_solves_on_instances(domain, problem, k):
    assert_solves(benchmark_input(domain, problem, k), rollout_roots(7, 12))



def test_converged_solve_marks_its_whole_greedy_graph_solved():
    # every exception count, the bound included: the executor follows the
    # solved keys below the bound
    model = benchmark_input("triangle", "triangle-4", 2)
    tables, _ = ff_lao_star(model, SolverConfig())
    graph = greedy_graph(tables, model, model.initial)
    assert graph <= tables.solved
    assert {aug.j for aug in graph} == {0, 1, 2}

def test_rollout_root_solves_on_random_models():
    rng = random.Random(1)
    for _ in range(40):
        grounded, delta, k, _ = random_reduced_setup(rng, n_atoms=7)
        assert_solves(make_reduction(grounded, delta, k),
                      rollout_roots(rng.random(), 6))


def test_rollout_root_solves_when_a_plan_lowers_a_read_entry():
    """``s`` reads the bound state ``b`` through ``go``'s exception, while
    ``b`` holds the cost 5 an earlier, costlier plan left. ``go2`` wins at
    first; expanding it plans from ``c`` through ``b`` and lowers ``b`` to
    1, which only ``s``'s next update sees."""
    def split(primary, exception):
        return (
            Outcome(Fraction(4, 5), (Atom(primary),), (Atom("s"),)),
            Outcome(Fraction(1, 5), (Atom(exception),), (Atom("s"),)))
    grounded = build_problem(
        [ActionSchema("go", (), (Literal(Atom("s")),), (split("m", "b"),)),
         ActionSchema("go2", (), (Literal(Atom("s")),), (split("m2", "c"),)),
         det_action("m2g", ["m"], ["g"], ["m"]),
         det_action("m22g", ["m2"], ["g"], ["m2"]),
         det_action("b2g", ["b"], ["g"], ["b"]),
         det_action("c2b", ["c"], ["b"], ["c"])],
        init=["s"], goal=["g"])
    b = AugmentedState(State(state_from_atoms(grounded, ["(b)"])), 1)
    model = make_reduction(grounded, trivial_delta(grounded), 1)

    def plant(tables):
        tables.v[b] = 5.0
        tables.pi[b] = action_by_name(grounded, "(b2g)").id

    tables = assert_solves(model, lambda model, _: [model.initial], plant)
    assert tables.v[b] == 1.0
    assert tables.pi[model.initial] == action_by_name(grounded, "(go)").id
