"""Grounding tests: residual mass, cross products, pruning, determinism,
and the static join's equivalence with the exhaustive binding product."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from sspkit import (GroundingBlowupError, grounding, ground, parse_domain,
                    parse_problem)
from sspkit.domains import GENERATORS, gen_trap
from sspkit.oracle import enumerate_model
from sspkit.ppddl import (ActionSchema, Atom, DomainSchema, Outcome,
                          Predicate, ProblemDef)

from conftest import action_by_name, load, state_from_atoms
from randmodels import random_domain

INPUTS = Path(__file__).resolve().parents[1] / "benchmark" / "inputs"


def nullary_domain(clauses, name="d") -> tuple[DomainSchema, ProblemDef]:
    atoms = sorted({a.pred for clause in clauses
                    for o in clause for a in o.add + o.delete} | {"g"})
    schema = DomainSchema(
        name, {},
        tuple(Predicate(p, ()) for p in atoms),
        (ActionSchema("act", (), (), tuple(clauses)),))
    problem = ProblemDef("p", name, (), (), (Atom("g"),))
    return schema, problem


def test_residual_mass_becomes_null_outcome():
    clause = (
        Outcome(Fraction(2, 5), (Atom("x"),), ()),
        Outcome(Fraction(2, 5), (Atom("y"),), ()),
        Outcome(Fraction(1, 5)),
    )
    schema, problem = nullary_domain([clause])
    grounded = ground(schema, problem)
    (action,) = grounded.actions
    probs = [o.probability for o in action.outcomes]
    assert probs == [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    x, y = (state_from_atoms(grounded, [a]) for a in ("(x)", "(y)"))
    # the residual no-op is the clause's last outcome, so the last joint one
    assert [(o.add_mask, o.del_mask) for o in action.outcomes] == [
        (x, 0), (y, 0), (0, 0)]


def test_cross_product_outcomes():
    c1 = (
        Outcome(Fraction(1, 2), (Atom("x"),), ()),
        Outcome(Fraction(1, 2), (Atom("y"),), ()),
    )
    c2 = (
        Outcome(Fraction(9, 10), (Atom("u"),), ()),
        Outcome(Fraction(1, 10), (Atom("v"),), ()),
    )
    schema, problem = nullary_domain([c1, c2])
    grounded = ground(schema, problem)
    (action,) = grounded.actions
    assert [float(o.probability) for o in action.outcomes] == [
        0.45, 0.05, 0.45, 0.05]
    x, y, u, v = (state_from_atoms(grounded, [a])
                  for a in ("(x)", "(y)", "(u)", "(v)"))
    # itertools.product order: the last clause's outcome varies fastest
    assert [o.add_mask for o in action.outcomes] == [
        x | u, x | v, y | u, y | v]
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
    assert len(grounded.actions) == 12
    explicit = enumerate_model(grounded)
    assert explicit.n_states == 65


def test_static_reachability_pruning(triangle1):
    _, _, grounded = triangle1
    moves = [a for a in grounded.actions if a.schema_name == "move-car"]
    # only the 7 road pairs survive out of 6*6 bindings
    assert len(moves) == 7
    assert action_by_name(grounded, "(move-car l-1-1 l-1-1)") is None
    assert action_by_name(grounded, "(move-car l-1-1 l-1-2)") is not None


def test_grounding_deterministic_order(triangle1):
    schema, problem, grounded = triangle1
    again = ground(schema, problem)
    names = [a.name for a in grounded.actions]
    assert names == [a.name for a in again.actions]
    keyed = sorted(names, key=lambda n: (n.strip("()").split()[0],
                                         n.strip("()").split()[1:]))
    assert names == keyed
    assert grounded.atoms == again.atoms


def test_grounding_blowup_cap(monkeypatch):
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
    monkeypatch.setattr(grounding, "BINDING_CAP", 1000)
    with pytest.raises(GroundingBlowupError):
        ground(schema, problem)


def coin_flips(n: int) -> list[tuple[Outcome, ...]]:
    """``n`` independent clauses, each adding ``(q<i>)`` with probability
    1/2 and else doing nothing: their joint outcomes number ``2 ** n``."""
    return [(Outcome(Fraction(1, 2), (Atom(f"q{i}"),), ()), Outcome(Fraction(1, 2)))
            for i in range(n)]


def test_grounding_caps_joint_outcomes():
    # one nullary action, so one binding, but 2^21 joint outcomes: the cap
    # fires before any of them is built
    schema, problem = nullary_domain(coin_flips(21))
    start = time.perf_counter()
    with pytest.raises(GroundingBlowupError,
                       match="2097152 joint outcomes, over the cap of 1000000"):
        ground(schema, problem)
    assert time.perf_counter() - start < 0.5


def test_outcome_cap_admits_exactly_its_count(monkeypatch):
    schema, problem = nullary_domain(coin_flips(3))
    monkeypatch.setattr(grounding, "OUTCOME_CAP", 8)
    (action,) = ground(schema, problem).actions
    assert len(action.outcomes) == 8
    monkeypatch.setattr(grounding, "OUTCOME_CAP", 7)
    with pytest.raises(GroundingBlowupError, match="8 joint outcomes"):
        ground(schema, problem)


def test_grounding_cap_counts_the_join_not_the_product():
    # the raw typed product of trap-100 is 1,135,680 bindings, over the
    # default cap; the join visits a few hundred and keeps 103 actions
    schema, _, grounded = load(*gen_trap(100))
    assert len(grounded.actions) == 103


def test_grounding_cap_counts_partial_bindings(monkeypatch):
    # (pit ?z) holds for no object, so the join yields no binding at all,
    # yet it visits the 40 + 40 * 40 bindings of ?x and ?y on the way
    schema = parse_domain("""
    (define (domain pits)
      (:predicates (at ?x - object) (pit ?z - object))
      (:action leap
        :parameters (?x - object ?y - object ?z - object)
        :precondition (and (at ?x) (pit ?z))
        :effect (at ?y)))
    """)
    objects = " ".join(f"o{i}" for i in range(40))
    problem = parse_problem(
        f"(define (problem p) (:domain pits) (:objects {objects} - object)"
        "(:init (at o0)) (:goal (at o1)))", schema)
    monkeypatch.setattr(grounding, "BINDING_CAP", 1639)
    with pytest.raises(GroundingBlowupError, match="cap of 1639 "):
        ground(schema, problem)
    monkeypatch.setattr(grounding, "BINDING_CAP", 1640)
    assert ground(schema, problem).actions == []


def test_grounding_cap_fires_before_listing_unchecked_bindings():
    # no static precondition: the 20^5 bindings of the join are counted
    # from the domain sizes, so the cap fires before any is listed
    schema = parse_domain("""
    (define (domain big)
      (:predicates (p ?a ?b ?c ?d ?e) (g))
      (:action a :parameters (?a ?b ?c ?d ?e)
        :precondition (and) :effect (p ?a ?b ?c ?d ?e)))
    """)
    objects = " ".join(f"o{i}" for i in range(20))
    problem = parse_problem(
        f"(define (problem p) (:domain big) (:objects {objects}) (:init)"
        " (:goal (g)))", schema)
    tracemalloc.start()
    try:
        with pytest.raises(GroundingBlowupError):
            ground(schema, problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# ── the static join against the exhaustive binding product ──────────────────

def product_ground(schema, problem):
    """The reference: instantiate every binding of the typed product and
    let relaxed reachability alone prune."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grounding, "_static_bindings",
                   lambda action, domains, init, static, visit: product(*domains))
        return ground(schema, problem)


def assert_same_as_product(schema, problem):
    joined = ground(schema, problem)
    reference = product_ground(schema, problem)
    # dataclass equality covers the atoms in order, every action field in
    # order (ids, names, masks, cost, outcomes with probability and
    # choice), the initial state and the goal
    assert joined == reference
    return joined


@pytest.mark.parametrize("kind,size", [
    ("triangle", 1), ("triangle", 2), ("chain", 2), ("chain", 5),
    ("chain", 10), ("retry", None), ("trap", 4), ("trap", 6)])
def test_join_matches_product_on_generated_domains(kind, size):
    gen, _ = GENERATORS[kind]
    domain_text, problem_text = gen() if size is None else gen(size)
    schema = parse_domain(domain_text)
    assert_same_as_product(schema, parse_problem(problem_text, schema))


def read_input(domain, problem):
    schema = parse_domain((INPUTS / f"{domain}-domain.ppddl").read_text())
    text = (INPUTS / f"{problem}-problem.ppddl").read_text()
    return schema, parse_problem(text, schema)


@pytest.mark.parametrize("domain,problem", [
    ("triangle", "triangle-3"), ("triangle", "triangle-4"),
    ("triangle", "triangle-5"), ("trap", "trap-10")])
def test_join_matches_product_on_benchmark_inputs(domain, problem):
    assert_same_as_product(*read_input(domain, problem))


def test_join_keeps_the_statically_true_bindings_of_triangle_10():
    # the product reference takes seconds on triangle-10's 53,593 bindings,
    # so there the join is checked binding by binding against the product
    schema, problem = read_input("triangle", "triangle-10")
    objects = sorted(problem.objects)
    init = {str(atom) for atom in problem.init}
    static = {"road", "spare-in"}
    for action in schema.action_schemas:
        variables = [v for v, _ in action.parameters]
        domains = [[obj for obj, otype in objects if schema.is_subtype(otype, t)]
                   for _, t in action.parameters]
        expected = [
            b for b in product(*domains)
            if all(grounding._bind(lit.atom, dict(zip(variables, b))) in init
                   for lit in action.precondition
                   if not lit.negated and lit.atom.pred in static)]
        assert list(grounding._static_bindings(
            action, domains, problem.init, static)) == expected


def test_join_matches_product_on_random_domains():
    rng = random.Random(10)
    for _ in range(300):
        assert_same_as_product(*random_domain(rng))


# Each case: predicates and actions of a domain over objects a b c (type
# t, or car/truck under vehicle), then the :init atoms and the names the
# join must keep.
JOIN_CASES = {
    "object-constant": (
        "(:predicates (at ?x - t) (link ?x - t ?y - t))"
        "(:action go :parameters (?x - t) :precondition (and (at ?x) (link ?x c))"
        " :effect (at c))",
        "(at a) (at b) (link a c) (link c a)",
        ["(go a)"]),
    "repeated-variable": (
        "(:predicates (at ?x - t) (road ?x - t ?y - t))"
        "(:action stay :parameters (?x - t) :precondition (and (at ?x) (road ?x ?x))"
        " :effect (not (at ?x)))",
        "(at a) (at b) (road a b) (road b b)",
        ["(stay b)"]),
    "nullary-static-absent": (
        "(:predicates (on) (at ?x - t))"
        "(:action gated :parameters (?x - t) :precondition (on) :effect (at ?x))"
        "(:action open :parameters (?x - t) :precondition (at ?x) :effect (not (at ?x)))",
        "(at a)",
        ["(open a)"]),
    "negated-static": (
        "(:predicates (at ?x - t) (blocked ?x - t))"
        "(:action go :parameters (?x - t)"
        " :precondition (and (not (blocked ?x))) :effect (at ?x))",
        "(blocked b)",
        ["(go a)", "(go b)", "(go c)"]),
    "subtypes": (
        "(:predicates (parked ?v - vehicle ?w - vehicle) (moved ?v - vehicle))"
        "(:action tow :parameters (?v - vehicle ?w - truck)"
        " :precondition (parked ?v ?w) :effect (moved ?v))",
        "(parked a b) (parked b b) (parked b c) (parked c a)",
        ["(tow a b)", "(tow b b)", "(tow b c)"]),
    "delete-only": (
        "(:predicates (fuel ?x - t) (done ?x - t))"
        "(:action burn :parameters (?x - t) :precondition (fuel ?x)"
        " :effect (and (done ?x) (not (fuel ?x))))",
        "(fuel c) (fuel a)",
        ["(burn a)", "(burn c)"]),
    "last-parameter": (
        "(:predicates (at ?x - t) (edge ?x - t ?z - t) (pit ?z - t))"
        "(:action leap :parameters (?x - t ?y - t ?z - t)"
        " :precondition (and (at ?x) (edge ?x ?z) (pit ?z)) :effect (at ?y))",
        "(at a) (edge a b) (edge a c) (pit c)",
        ["(leap a a c)", "(leap a b c)", "(leap a c c)"]),
    "zero-parameters": (
        "(:predicates (ready) (go))"
        "(:action start :parameters () :precondition (ready) :effect (go))",
        "(ready)",
        ["(start)"]),
}


@pytest.mark.parametrize("case", JOIN_CASES)
def test_join_matches_product_on_hand_built_cases(case):
    body, init, names = JOIN_CASES[case]
    types = ("(:types car truck - vehicle vehicle)" if "vehicle" in body
             else "(:types t)")
    objects = "a - car b c - truck" if "vehicle" in body else "a b c - t"
    schema = parse_domain(f"(define (domain d) {types} {body})")
    problem = parse_problem(f"(define (problem p) (:domain d) (:objects {objects})"
                            f" (:init {init}) (:goal (and)))", schema)
    joined = assert_same_as_product(schema, problem)
    assert [a.name for a in joined.actions] == names
