"""Parser tests: subset coverage and diagnostics."""

from fractions import Fraction

import pytest

from sspkit import (ParseError, TypeMismatchError, UnsupportedFeatureError,
                    parse_domain, parse_problem)
from sspkit.domains import (gen_chain, gen_retry, gen_trap,
                            gen_triangle_tireworld)
from sspkit.ppddl import Atom, Outcome

MINIMAL = """
(define (domain mini)
  (:requirements :strips)
  (:predicates (p) (q))
  (:action flip
    :parameters ()
    :precondition (p)
    :effect (and (q) (not (p)))))
"""


def test_minimal_deterministic_domain():
    schema = parse_domain(MINIMAL)
    assert len(schema.action_schemas) == 1
    action = schema.action_schemas[0]
    assert len(action.clauses) == 1
    (outcome,) = action.clauses[0]
    assert outcome.probability == 1
    assert [str(a) for a in outcome.add] == ["(q)"]
    assert [str(a) for a in outcome.delete] == ["(p)"]


def test_triangle_domain_shape():
    domain_text, _ = gen_triangle_tireworld(1)
    schema = parse_domain(domain_text)
    assert [a.name for a in schema.action_schemas] == [
        "move-car", "loadtire", "changetire"]
    move = next(a for a in schema.action_schemas if a.name == "move-car")
    assert len(move.clauses) == 1
    outcomes = move.clauses[0]
    assert len(outcomes) == 2
    assert [o.probability for o in outcomes] == [Fraction(1, 2), Fraction(1, 2)]
    # both outcomes move the vehicle; only the first flattens the tire
    for o in outcomes:
        assert "(vehicle-at ?to)" in [str(a) for a in o.add]
    assert "(not-flattire)" in [str(a) for a in outcomes[0].delete]
    assert "(not-flattire)" not in [str(a) for a in outcomes[1].delete]


def test_negative_precondition_parsed():
    domain_text, _ = gen_triangle_tireworld(1)
    schema = parse_domain(domain_text)
    load = next(a for a in schema.action_schemas if a.name == "loadtire")
    negs = [lit for lit in load.precondition if lit.negated]
    assert [str(l.atom) for l in negs] == ["(not-flattire)"]


def test_conditional_effect_rejected():
    text = """
    (define (domain bad)
      (:predicates (p) (q))
      (:action a
        :parameters ()
        :precondition (p)
        :effect (when (p) (q))))
    """
    with pytest.raises(UnsupportedFeatureError) as err:
        parse_domain(text)
    assert err.value.feature == "when"


def test_metric_and_quantified_goal_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_domain("""
        (define (domain bad)
          (:predicates (p))
          (:functions (reward)))
        """)
    schema = parse_domain(MINIMAL)
    with pytest.raises(UnsupportedFeatureError):
        parse_problem("""
        (define (problem bad) (:domain mini)
          (:init (p))
          (:goal (forall (?x) (p))))
        """, schema)


def test_nested_probabilistic_rejected():
    with pytest.raises(UnsupportedFeatureError) as err:
        parse_domain("""
        (define (domain bad)
          (:predicates (p))
          (:action a
            :parameters ()
            :precondition (and)
            :effect (probabilistic 0.5 (probabilistic 0.5 (p)))))
        """)
    assert "nested" in err.value.feature


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain x)\n  (:predicates (p)", filename="f.ppddl")
    msg = str(err.value)
    assert msg.startswith("f.ppddl:")
    assert "unclosed" in msg


@pytest.mark.parametrize("action,message", [
    ("(:action a :parameters () :precondition (r) :effect (p))",
     "undeclared predicate 'r' in action 'a'"),
    ("(:action a :parameters () :precondition (p) :effect (p ?x))",
     "predicate 'p' used with arity 1 (declared 0) in action 'a'"),
    ("(:action a :parameters () :precondition (q ?x) :effect (p))",
     "unbound variable '?x' in action 'a'")])
def test_schema_check_points_at_the_action(action, message):
    text = f"(define (domain d) (:predicates (p) (q ?y))\n  (:action b)\n  {action})"
    with pytest.raises(ParseError) as err:
        parse_domain(text, filename="d.ppddl")
    assert str(err.value) == f"d.ppddl:3:4: {message}"


@pytest.mark.parametrize("sections,message", [
    ("(:domain other) (:init) (:goal (p))",
     "1:22: problem 'x' references domain 'other', expected 'mini'"),
    ("(:objects o - object o - object) (:init) (:goal (p))",
     "1:22: duplicate object 'o'"),
    ("(:objects o - thing) (:init) (:goal (p))",
     "1:22: object 'o' has undeclared type 'thing'"),
    ("(:init (p)\n (q) (r)) (:goal (p))",
     "2:7: undeclared predicate 'r' in :init"),
    ("(:init (p)) (:goal (and (p)\n (q o)))",
     "2:3: predicate 'q' used with arity 1 (declared 0) in :goal")])
def test_problem_check_points_at_the_section_or_atom(sections, message):
    schema = parse_domain(MINIMAL)
    with pytest.raises(TypeMismatchError) as err:
        parse_problem(f"(define (problem x) {sections})", schema,
                      filename="p.ppddl")
    assert str(err.value) == f"p.ppddl:{message}"


def test_object_type_mismatch_points_at_the_atom():
    schema = parse_domain("(define (domain t) (:types truck plane)"
                          " (:predicates (flying ?p - plane)))")
    with pytest.raises(TypeMismatchError) as err:
        parse_problem("(define (problem x) (:objects t1 - truck)\n"
                      "  (:init (flying t1)) (:goal (and)))", schema,
                      filename="p.ppddl")
    assert str(err.value) == ("p.ppddl:2:11: object 't1' of type 'truck' "
                              "where 'plane' expected in :init")


def test_error_without_a_token_names_only_the_file():
    with pytest.raises(ParseError) as err:
        parse_domain("; nothing here\n", filename="e.ppddl")
    assert str(err.value) == "e.ppddl: expected a single (define ...) form"


def test_probability_over_one_rejected():
    with pytest.raises(ParseError) as err:
        parse_domain("""
        (define (domain bad)
          (:predicates (p) (q))
          (:action a
            :parameters ()
            :precondition (and)
            :effect (probabilistic 0.7 (p) 0.6 (q))))
        """)
    assert "sum" in str(err.value)


def test_zero_probability_outcome_dropped():
    schema = parse_domain("""
    (define (domain z)
      (:predicates (p) (q))
      (:action a
        :parameters ()
        :precondition (and)
        :effect (probabilistic 0 (q) 0.5 (p))))
    """)
    (clause,) = schema.action_schemas[0].clauses
    # the 0.5 of (p), then the residual 0.5 as an empty outcome
    assert clause == (Outcome(Fraction(1, 2), (Atom("p"),)),
                      Outcome(Fraction(1, 2)))


def test_residual_mass_is_an_explicit_last_outcome():
    (action,) = parse_domain(gen_retry()[0]).action_schemas
    (clause,) = action.clauses
    assert clause == (Outcome(Fraction(1, 2), (Atom("done"),)),
                      Outcome(Fraction(1, 2)))


@pytest.mark.parametrize("domain_text", [
    gen_triangle_tireworld(1)[0], gen_chain()[0], gen_retry()[0], gen_trap()[0],
], ids=["triangle", "chain", "retry", "trap"])
def test_bundled_clauses_sum_to_one_with_any_residual_last(domain_text):
    for action in parse_domain(domain_text).action_schemas:
        for clause in action.clauses:
            assert sum(o.probability for o in clause) == 1
            # an empty outcome is a residual no-op, and only ever the last
            assert all(o.add or o.delete for o in clause[:-1])


def test_problem_triangle1(triangle1):
    _, problem, _ = triangle1
    init = {str(a) for a in problem.init}
    assert "(vehicle-at l-1-1)" in init
    assert "(not-flattire)" in init
    assert [str(a) for a in problem.goal] == ["(vehicle-at l-1-3)"]


def test_empty_goal_is_valid():
    schema = parse_domain(MINIMAL)
    problem = parse_problem(
        "(define (problem e) (:domain mini) (:init (p)) (:goal (and)))",
        schema)
    assert problem.goal == ()


@pytest.mark.parametrize("section", ["(:domain)", "(:goal)", "(:goal (q) (p))"])
def test_malformed_problem_section_is_positioned(section):
    schema = parse_domain(MINIMAL)
    text = f"(define (problem e) (:domain mini) (:init (p))\n  {section})"
    with pytest.raises(ParseError) as err:
        parse_problem(text, schema, filename="e.ppddl")
    assert (err.value.line, err.value.col) == (2, 4)
    assert str(err.value).startswith("e.ppddl:2:4: ")


def test_undeclared_object_in_init():
    schema = parse_domain(MINIMAL)
    with pytest.raises(TypeMismatchError):
        parse_problem("""
        (define (problem bad) (:domain mini)
          (:objects x - object)
          (:init (p x))
          (:goal (q)))
        """, schema)


def test_arity_mismatch():
    schema = parse_domain(MINIMAL)
    with pytest.raises(TypeMismatchError):
        parse_problem("""
        (define (problem bad) (:domain mini)
          (:objects x - object)
          (:init (p x))
          (:goal (q)))
        """, schema)


def test_object_type_mismatch():
    schema = parse_domain("""
    (define (domain t)
      (:types truck plane)
      (:predicates (flying ?p - plane))
      (:action fly
        :parameters (?p - plane)
        :precondition (and)
        :effect (flying ?p)))
    """)
    with pytest.raises(TypeMismatchError):
        parse_problem("""
        (define (problem bad) (:domain t)
          (:objects t1 - truck)
          (:init (flying t1))
          (:goal (flying t1)))
        """, schema)


def test_domain_name_mismatch():
    schema = parse_domain(MINIMAL)
    with pytest.raises(TypeMismatchError):
        parse_problem("(define (problem x) (:domain other) (:init) (:goal (p)))",
                      schema)


def test_type_cycle_rejected():
    with pytest.raises(ParseError):
        parse_domain("""
        (define (domain c)
          (:types a - b  b - a)
          (:predicates (p)))
        """)


def test_duplicate_predicate_rejected():
    with pytest.raises(ParseError):
        parse_domain("(define (domain d) (:predicates (p) (p)))")


@pytest.mark.parametrize("head, repeat, col, message", [
    pytest.param("(define (domain d) (:requirements :strips) (:predicates (p))",
                 "(:requirements :typing))", 4,
                 "duplicate :requirements section", id=":requirements"),
    pytest.param("(define (domain d) (:predicates (p)) (:action a :effect (p))",
                 "(:action a :effect (not (p))))", 12,
                 "duplicate action 'a'", id="action"),
    pytest.param("(define (domain d) (:predicates (p)) (:action a :parameters ()",
                 ":parameters ()))", 3,
                 "duplicate :parameters in action 'a'", id=":parameters"),
    pytest.param("(define (domain d) (:predicates (p)) (:action a :precondition (p)",
                 ":precondition (and)))", 3,
                 "duplicate :precondition in action 'a'", id=":precondition"),
    pytest.param("(define (domain d) (:predicates (p)) (:action a :effect (p)",
                 ":effect (not (p))))", 3,
                 "duplicate :effect in action 'a'", id=":effect"),
    pytest.param("(define (problem e) (:domain mini) (:init (p)) (:goal (q))",
                 "(:domain mini))", 4, "duplicate :domain section", id=":domain"),
    pytest.param("(define (problem e) (:domain mini) (:objects x) (:init (p))",
                 "(:objects y) (:goal (q)))", 4,
                 "duplicate :objects section", id=":objects"),
    pytest.param("(define (problem e) (:domain mini) (:init (p)) (:goal (q))",
                 "(:goal (and)))", 4, "duplicate :goal section", id=":goal"),
])
def test_repeated_section_is_positioned(head, repeat, col, message):
    # a repeat would silently replace the earlier section or action
    text = f"{head}\n  {repeat}"
    with pytest.raises(ParseError) as err:
        if "(problem" in head:
            parse_problem(text, parse_domain(MINIMAL), filename="r.ppddl")
        else:
            parse_domain(text, filename="r.ppddl")
    assert str(err.value) == f"r.ppddl:2:{col}: {message}"


def test_type_repeated_with_its_parent_merges():
    schema = parse_domain(
        "(define (domain d) (:types a - b) (:types a - b c) (:predicates (p)))")
    assert schema.types == {"a": "b", "c": "object"}


PRECONDITION = """(define (domain d) (:predicates (p ?x))
  (:action a :parameters (?x ?y) :precondition {} :effect (p ?x)))"""
PROBABILITY = """(define (domain d) (:predicates (p))
  (:action a :parameters () :effect (probabilistic {} (p))))"""
DEEP = 2_000  # past the interpreter's default recursion limit


@pytest.mark.parametrize("text, message, line, col", [
    pytest.param("(define ((domain) d))", "expected (domain <name>)", 1, 11,
                 id="domain-head"),
    pytest.param("(define ((problem) p))", "expected (problem <name>)", 1, 11,
                 id="problem-head"),
    pytest.param(PRECONDITION.format("(not (= ?x))"), "malformed (= ...)",
                 2, 54, id="negated-equality-one-term"),
    pytest.param(PRECONDITION.format("(not (=))"), "malformed (= ...)",
                 2, 54, id="negated-equality-no-term"),
    pytest.param(PRECONDITION.format("(not (= ?x ?y ?x))"), "malformed (= ...)",
                 2, 54, id="negated-equality-three-terms"),
    pytest.param("(define (domain d) (:types a - b)\n  (:types a - c))",
                 "type 'a' declared with parents 'b' and 'c'", 2, 4,
                 id="type-parents-across-sections"),
    pytest.param("(define (domain d)\n  (:types a - b a - c))",
                 "type 'a' declared with parents 'b' and 'c'", 2, 4,
                 id="type-parents-within-section"),
    pytest.param(PROBABILITY.format("1/0"),
                 "expected probability, got '1/0'", 2, 52,
                 id="zero-denominator"),
    pytest.param(PROBABILITY.format("0/0"),
                 "expected probability, got '0/0'", 2, 52,
                 id="zero-over-zero"),
    # past the interpreter's default limit of 4,300 digits
    pytest.param(PROBABILITY.format("0." + "0" * 4_999 + "5"),
                 "probability of 5002 characters has too many digits", 2, 52,
                 id="long-decimal-probability"),
    pytest.param(PROBABILITY.format("1/" + "1" * 5_000),
                 "probability of 5002 characters has too many digits", 2, 52,
                 id="long-fraction-probability"),
    # the form opened at depth 101 is reported
    pytest.param("(define (domain d) " + "(" * DEEP + ")" * DEEP + ")",
                 "form nested deeper than 100 levels", 1, 20 + 99,
                 id="deep-domain"),
    pytest.param(PRECONDITION.format("(and " * DEEP + "(p ?x)" + ")" * DEEP),
                 "form nested deeper than 100 levels", 2, 48 + 98 * 5,
                 id="deep-precondition"),
    pytest.param("(define (problem p) (:domain mini) (:init) (:goal "
                 + "(and " * DEEP + "(p)" + ")" * DEEP + "))",
                 "form nested deeper than 100 levels", 1, 51 + 98 * 5,
                 id="deep-goal"),
    # an empty form holds no token, so the error points at its '('
    pytest.param(PRECONDITION.format("(not ())"), "expected atom", 2, 53,
                 id="empty-negated-precondition"),
    pytest.param(PRECONDITION.format("(and (p ?x) ())"),
                 "expected precondition literal", 2, 60,
                 id="empty-precondition-conjunct"),
    pytest.param("(define (domain d) (:predicates (p))\n"
                 "  (:action a :parameters () :effect (and (p) ())))",
                 "expected effect", 2, 46, id="empty-effect-conjunct"),
    pytest.param("(define (domain d) (:predicates (p)\n  ()))",
                 "expected predicate declaration", 2, 3,
                 id="empty-predicate-declaration"),
    pytest.param("(define (domain d)\n  ())", "expected a domain section",
                 2, 3, id="empty-domain-section"),
    pytest.param("(define (problem p) (:domain mini)\n  (:init (p) ()))",
                 "expected init atom", 2, 14, id="empty-init-atom"),
    pytest.param("(define (problem p) (:domain mini)\n  ())",
                 "expected a problem section", 2, 3, id="empty-problem-section"),
    pytest.param("(define (domain d) (:predicates (p)\n  (())))",
                 "expected predicate name", 2, 4, id="empty-predicate-name"),
    # one case per remaining error branch of the reader and parser
    pytest.param("(define (domain d)\x0b)", "stray character '\\x0b'", 1, 19,
                 id="stray-vertical-tab"),
    pytest.param("(define (domain d)\n  (:types a -))",
                 "expected type after '-'", 2, 13, id="type-after-dash"),
    # a typed list needs one or more names before each '-'
    pytest.param("(define (domain d) (:types loc) (:predicates (p))\n"
                 "  (:action a :parameters (- loc) :effect (p)))",
                 "expected a name before '-'", 2, 27, id="dash-first-parameters"),
    pytest.param("(define (domain d)\n  (:types a - loc - loc b))",
                 "expected a name before '-'", 2, 19, id="dash-after-type-types"),
    pytest.param("(define (problem p) (:domain mini)\n"
                 "  (:objects a - loc - loc b))",
                 "expected a name before '-'", 2, 21, id="dash-after-type-objects"),
    # the requirements are not kept, but each must still be a word
    pytest.param("(define (domain d)\n  (:requirements (strips)))",
                 "expected requirement", 2, 19, id="requirement-form"),
    pytest.param("(define (domain d)\n  (:types a - (either b c)))",
                 "unsupported construct: either", 2, 16, id="either-type"),
    pytest.param("(define (problem p) (:domain mini)\n  (:objects o ?x))",
                 "unexpected variable '?x'", 2, 15, id="variable-object"),
    pytest.param("(define (domain d) (:predicates (p))\n"
                 "  (:action a :parameters () :effect (probabilistic 0.5)))",
                 "probabilistic effect needs (p effect) pairs", 2, 38,
                 id="probabilistic-without-effect"),
    pytest.param("(define (domain d)\n  (:action))", "expected action name",
                 2, 4, id="action-without-name"),
    pytest.param("(define (problem p) (:domain mini)\n  (:init (not (p))))",
                 "unsupported construct: not in :init", 2, 11,
                 id="negative-init"),
    pytest.param("(define (problem p) (:domain mini) (:init)\n"
                 "  (:goal (and (p) q)))", "expected goal atom", 2, 19,
                 id="bare-word-goal"),
    pytest.param("(define (problem p) (:domain mini) (:init)\n"
                 "  (:goal (and (p) (not (q)))))",
                 "unsupported construct: negative goal", 2, 20,
                 id="negative-goal"),
])
def test_malformed_form_is_positioned(int_digit_limit, text, message, line,
                                      col):
    with pytest.raises(ParseError) as err:
        if "(problem" in text:
            parse_problem(text, parse_domain(MINIMAL), filename="m.ppddl")
        else:
            parse_domain(text, filename="m.ppddl")
    assert str(err.value) == f"m.ppddl:{line}:{col}: {message}"


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError):
        parse_domain("""
        (define (domain d)
          (:predicates (p ?x))
          (:action a
            :parameters (?x ?x)
            :precondition (and)
            :effect (p ?x)))
        """)


def test_constants_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_domain("""
        (define (domain c)
          (:constants x - object)
          (:predicates (p)))
        """)


def test_equality_constraint_parsed():
    schema = parse_domain("""
    (define (domain eq)
      (:requirements :strips :equality)
      (:predicates (at ?x - object))
      (:action swap
        :parameters (?a - object ?b - object)
        :precondition (and (at ?a) (not (= ?a ?b)))
        :effect (and (at ?b) (not (at ?a)))))
    """)
    action = schema.action_schemas[0]
    assert action.equalities == (("?a", "?b", False),)
