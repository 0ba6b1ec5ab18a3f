"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import statistics
import subprocess
import sys
import time

import pytest

from sspkit import ground, make_reduction, parse_domain, parse_problem
from sspkit.detplan import solve_deterministic
from sspkit.domains import gen_retry, gen_trap, gen_triangle_tireworld
from sspkit.executor import monte_carlo_evaluate
from sspkit.learner import learning_det
from sspkit.oracle import enumerate_model, value_iteration
from sspkit.reduction import (AugmentedState, Determinization, State,
                              make_reduction, mlo_determinization)
from sspkit.solver import (NOP, SolveReport, SolverConfig, SolverTables,
                           ff_lao_star)

from conftest import (FLAT_DELTA, NOFLAT_DELTA, load, optimal_plan,
                      validate_plan)
from randmodels import (random_domain, random_proper_reduced_setup,
                        random_reduced_setup)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_equivalence(exact_solver):
    """Solver agrees with exact VI on random proper reduced models."""
    start = time.monotonic()
    rng = random.Random(20240817)
    cfg = SolverConfig(epsilon=1e-6)
    tolerance = 1e-3
    worst = 0.0
    checked = 0
    while checked < 100:
        grounded, delta, k, model, explicit = random_proper_reduced_setup(
            rng, n_atoms=5, max_k=2, state_cap=2000)
        base = enumerate_model(grounded, cap=2000)
        assert base.n_states <= 2000
        values, _ = value_iteration(explicit, epsilon=1e-9)
        tables, solve_report = ff_lao_star(model, cfg)
        gap = abs(solve_report.v_root - values[0])
        worst = max(worst, gap)
        assert gap <= tolerance, (
            f"model {checked}: solver {solve_report.v_root} vs "
            f"VI {values[0]}")
        checked += 1
    elapsed = time.monotonic() - start
    report(1, worst <= tolerance and elapsed < 120.0,
           f"{checked} random proper models, max |V - VI| = {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_2_reduced_transition_well_formedness():
    """Sampled reduced transitions form proper distributions and obey the
    exception-count rules; bound-zero models are deterministic."""
    rng = random.Random(97531)
    pairs = 0
    violations = 0
    target = 100_000
    while pairs < target:
        force_k0 = pairs % 3 == 0
        grounded, delta, k, model = random_reduced_setup(rng, n_atoms=6)
        if force_k0 and k != 0:
            k = 0
            model = make_reduction(grounded, delta, 0)
        for _ in range(400):
            if pairs >= target:
                break
            s = State(rng.getrandbits(len(grounded.atoms)))
            j = rng.randint(0, k)
            aug = AugmentedState(s, j)
            actions = model.applicable(aug)
            if not actions:
                continue
            action_id = actions[rng.randrange(len(actions))]
            succs = model.reduced_successors(aug, action_id)
            pairs += 1
            if abs(sum(p for _, p in succs) - 1.0) > 1e-9:
                violations += 1
            if any(not (succ.j == j or succ.j == j + 1) or succ.j > k
                   for succ, _ in succs):
                violations += 1
            if k == 0 and (len(succs) != 1 or succs[0][1] != 1.0):
                violations += 1
    report(2, violations == 0,
           f"{pairs} sampled (state, action) pairs, {violations} violations")


@pytest.fixture(scope="module")
def tireworld_learned():
    domain_text, problem_text = gen_triangle_tireworld(1)
    schema = parse_domain(domain_text)
    problem = parse_problem(problem_text, schema)
    results = {}
    for seed in (0, 7, 123):
        results[seed] = learning_det(schema, problem, k=0, rounds=50,
                                     seed=seed)
    return schema, results


def test_criterion_3_determinization_learning(tireworld_learned):
    """Learning picks the always-flat determinization; its executed cost
    matches exact VI of the original problem on three instance sizes."""
    schema, results = tireworld_learned
    for seed, (delta, ranked) in results.items():
        assert delta == FLAT_DELTA, f"seed {seed} picked {delta}"
        assert ranked[0].stats.success_probability == 1.0

    _, _, grounded2 = load(*gen_triangle_tireworld(2))
    flat_stats, _ = monte_carlo_evaluate(grounded2, FLAT_DELTA, 0, 1e-3, 50,
                                         seed=5)
    alt_stats, _ = monte_carlo_evaluate(grounded2, NOFLAT_DELTA, 0, 1e-3, 50,
                                        seed=5)
    assert alt_stats.success_probability < flat_stats.success_probability

    gaps = []
    for n in (1, 2, 3):
        _, _, grounded = load(*gen_triangle_tireworld(n))
        values, _ = value_iteration(enumerate_model(grounded), epsilon=1e-9)
        v_star = values[0]
        stats, rounds = monte_carlo_evaluate(grounded, FLAT_DELTA, 0, 1e-3,
                                             1000, seed=31)
        assert stats.success_probability == 1.0
        costs = [r.accumulated_cost for r in rounds]
        se = statistics.stdev(costs) / len(costs) ** 0.5
        gap = abs(statistics.fmean(costs) - v_star)
        gaps.append((n, v_star, gap, 3 * se))
        assert gap <= 3 * se, f"n={n}: |{statistics.fmean(costs)} - {v_star}|"
    detail = "; ".join(f"n={n}: V*={v}, |mean-V*|={g:.3f} <= 3SE={s:.3f}"
                       for n, v, g, s in gaps)
    report(3, True, f"always-flat learned on 3 seeds with P=1.0; {detail}")


def test_criterion_4_exception_bound_sensitivity():
    """The most-likely-outcome plan dives into the trap at bound 0; one
    planned-for exception avoids it entirely."""
    _, _, grounded = load(*gen_trap())
    mlo = mlo_determinization(grounded.schema)
    stats0, _ = monte_carlo_evaluate(grounded, mlo, 0, 1e-3, 200, seed=17)
    stats1, _ = monte_carlo_evaluate(grounded, mlo, 1, 1e-3, 200, seed=17)
    ok = stats0.success_probability < 0.5 and stats1.success_probability == 1.0
    report(4, ok, f"200 rounds: P(k=0) = {stats0.success_probability} < 0.5, "
                  f"P(k=1) = {stats1.success_probability} = 1.0")


def test_criterion_5_deterministic_subplanner_contract():
    """Default-mode plans always validate and never beat the optimum;
    unsolvable problems are reported as failures."""
    rng = random.Random(555)
    solvable = 0
    unsolvable = 0
    while solvable < 1000:
        schema, prob = random_domain(rng, n_atoms=7, deterministic=True)
        grounded = ground(schema, prob)
        delta = Determinization({(a.name, 0): 0
                                 for a in schema.action_schemas})
        det = make_reduction(grounded, delta, 0).det_problem
        explicit = enumerate_model(grounded, cap=2000)
        assert explicit.n_states <= 2000
        best = optimal_plan(explicit)
        result = solve_deterministic(det, grounded.initial_state)
        if best is None:
            unsolvable += 1
            assert result.status == "failure"
        else:
            solvable += 1
            assert result.found, "solvable problem not solved"
            assert validate_plan(det, grounded.initial_state, result)
            assert result.cost >= best[0] - 1e-9
    report(5, True, f"{solvable} solvable (all valid, cost >= optimal) and "
                    f"{unsolvable} unsolvable (all proven) problems")


def test_criterion_6_dead_end_cap():
    """No-path states converge to exactly the cap under VI and the solver;
    sub-planner failures store the cap value and a no-op policy."""
    domain = """
    (define (domain pitfall)
      (:predicates (alive) (fell) (g))
      (:action wander
        :parameters ()
        :precondition (alive)
        :effect (probabilistic 0.5 (and (fell) (not (alive))))))
    """
    schema, problem, grounded = load(
        domain,
        "(define (problem p) (:domain pitfall) (:init (alive)) (:goal (g)))")
    explicit = enumerate_model(grounded)
    values, _ = value_iteration(explicit, m_cap=500.0)
    vi_exact = all(v == 500.0 for v in values)

    delta = Determinization({("wander", 0): 0})
    for k in (0, 1):
        model = make_reduction(grounded, delta, k)
        tables, solve_report = ff_lao_star(model, SolverConfig())
        assert tables.v[model.initial] == 500.0
    # sub-planner failure at the bound: cap value, NOP policy
    model = make_reduction(grounded, delta, 0)
    tables = SolverTables()
    from sspkit.solver import ff_bellman_update
    ff_bellman_update(tables, model, SolverConfig(), model.initial,
                      SolveReport())
    ff_ok = (tables.v[model.initial] == 500.0
             and tables.pi[model.initial] == NOP)
    report(6, vi_exact and ff_ok,
           "dead ends converge to exactly 500.0 under VI and the solver; "
           "planner failures store cap and NOP")


def _config_matrix(tmp_path):
    files = {}
    for name, (domain_text, problem_text) in {
        "tri1": gen_triangle_tireworld(1),
        "tri2": gen_triangle_tireworld(2),
        "retry": gen_retry(),
        "trap": gen_trap(),
    }.items():
        d = tmp_path / f"{name}-d.ppddl"
        p = tmp_path / f"{name}-p.ppddl"
        d.write_text(domain_text)
        p.write_text(problem_text)
        files[name] = (str(d), str(p))
    tri1_d, tri1_p = files["tri1"]
    tri2_d, tri2_p = files["tri2"]
    retry_d, retry_p = files["retry"]
    trap_d, trap_p = files["trap"]
    return [
        ["plan", "--domain", tri1_d, "--problem", tri1_p,
         "--det-index", "0", "--k", "0"],
        ["plan", "--domain", tri1_d, "--problem", tri1_p,
         "--det-mlo", "--k", "1"],
        ["plan", "--domain", trap_d, "--problem", trap_p,
         "--det-mlo", "--k", "1"],
        ["simulate", "--domain", tri1_d, "--problem", tri1_p,
         "--det-index", "0", "--k", "0", "--rounds", "10", "--seed", "3"],
        ["simulate", "--domain", tri2_d, "--problem", tri2_p,
         "--det-mlo", "--k", "1", "--rounds", "5", "--seed", "8"],
        ["simulate", "--domain", retry_d, "--problem", retry_p,
         "--det-index", "0", "--k", "0", "--rounds", "20", "--seed", "1"],
        ["simulate", "--domain", trap_d, "--problem", trap_p,
         "--det-mlo", "--k", "0", "--rounds", "8", "--seed", "4"],
        ["learn-det", "--domain", tri1_d, "--training-problem", tri1_p,
         "--k", "0", "--rounds", "10", "--seed", "0"],
        ["learn-det", "--domain", retry_d, "--training-problem", retry_p,
         "--k", "0", "--rounds", "15", "--seed", "5"],
        ["bench", "--domain", tri1_d, "--problems", tri1_p, tri2_p,
         "--det-index", "0", "--k", "0", "--rounds", "5", "--seed", "2"],
    ]


def test_criterion_7_byte_identical_reruns(tmp_path):
    """Ten command configurations, each run twice: identical bytes."""
    configs = _config_matrix(tmp_path)
    assert len(configs) == 10
    for i, config in enumerate(configs):
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "sspkit.cli",
                                   *config], capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"config {i} differed: {config[0]}"
    report(7, True, "10 plan/simulate/learn-det/bench configurations "
                    "re-ran byte-identically")


def test_criterion_8_replanning_loop():
    """Retry execution matches the geometric closed form and replans exactly
    once per novel state."""
    _, _, grounded = load(*gen_retry())
    delta = Determinization({("attempt", 0): 0})
    stats, rounds = monte_carlo_evaluate(grounded, delta, 0, 1e-3, 1000,
                                         seed=2024)
    costs = [r.accumulated_cost for r in rounds]
    mean = statistics.fmean(costs)
    gap = abs(mean - 2.0)
    replans = sum(r.replans for r in rounds)
    # one novel state overall (the initial state, seen in round one)
    ok = gap <= 0.15 and replans == 1 and rounds[0].replans == 1
    report(8, ok, f"1000 rounds: mean cost {mean:.3f} within 0.15 of 2.0; "
                  f"{replans} solver invocation for 1 novel state")
