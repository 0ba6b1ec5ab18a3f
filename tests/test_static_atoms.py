"""Static atoms out of the preconditions: ``ground`` leaves out the
``:init`` atoms no outcome adds or deletes, and on the reachable states the
applicability index and the relaxed tasks give what the schemas' whole
preconditions give. Also the applicability index against a plain scan, and
the reduced model's backup records against a fresh computation.

The references are built here from the actions' masks and schemas, as
``tests/test_detplan.py`` does for the layered heuristic, on the 300
``randmodels`` domains, the benchmark inputs and generated triangle and
trap instances. States are enumerated with the reference scan, never with
the index under test.
"""

import random
from pathlib import Path

import pytest

from sspkit import (NotApplicableError, State, ground, make_reduction,
                    mlo_determinization, parse_domain, parse_problem)
from sspkit.detplan import RelaxedTask
from sspkit.domains import gen_trap, gen_triangle_tireworld
from sspkit.learner import enumerate_determinizations
from sspkit.model import successors
from sspkit.ppddl import Atom
from sspkit.reduction import AugmentedState
from sspkit.solver import SolverTables, _backup_record

from conftest import FLAT_DELTA, load
from randmodels import determinization_count, random_domain

INPUTS = Path(__file__).resolve().parents[1] / "benchmark" / "inputs"


def scan(actions, bits: int) -> list[int]:
    """The reference: the position of every action whose precondition
    holds, in list order."""
    return [i for i, a in enumerate(actions)
            if bits & a.pre_pos_mask == a.pre_pos_mask
            and not bits & a.pre_neg_mask]


def static_atoms(grounded) -> int:
    """The ``:init`` atoms that no outcome adds or deletes."""
    changed = 0
    for a in grounded.actions:
        for o in a.outcomes:
            changed |= o.add_mask | o.del_mask
    return grounded.initial_state & ~changed


def schema_preconditions(grounded) -> list[tuple[int, int]]:
    """Per action position, the positive and negative precondition masks of
    its schema instantiated with its name's arguments, static atoms
    included."""
    schemas = {s.name: s for s in grounded.schema.action_schemas}
    index = {name: i for i, name in enumerate(grounded.atoms)}
    result = []
    for a in grounded.actions:
        schema = schemas[a.schema_name]
        args = a.name.strip("()").split()[1:]
        env = {var: obj for (var, _), obj in zip(schema.parameters, args)}
        masks = [0, 0]
        for lit in schema.precondition:
            atom = Atom(lit.atom.pred,
                        tuple(env.get(arg, arg) for arg in lit.atom.args))
            masks[lit.negated] |= 1 << index[str(atom)]
        result.append(tuple(masks))
    return result


def reachable(grounded, cap: int) -> list[int]:
    """Breadth-first states from ``:init``, through the reference scan;
    at most ``cap`` of them."""
    start = grounded.initial_state
    seen = {start: None}
    frontier = [start]
    while frontier and len(seen) < cap:
        bits = frontier.pop(0)
        for i in scan(grounded.actions, bits):
            for succ, _ in successors(bits, i, grounded):
                if succ not in seen and len(seen) < cap:
                    seen[succ] = None
                    frontier.append(succ)
    return list(seen)


def random_bitsets(rng: random.Random, n_atoms: int, count: int) -> list[int]:
    """Bitsets with each atom set with probability 1/2, 1/10 or 9/10."""
    return [sum(1 << i for i in range(n_atoms) if rng.random() < p)
            for p in (0.5, 0.1, 0.9) for _ in range(count)]


def det_problems(grounded, deltas):
    return [make_reduction(grounded, delta, 0).det_problem for delta in deltas]


def assert_index_matches_scan(grounded, deltas, states) -> None:
    for bits in states:
        expected = scan(grounded.actions, bits)
        assert grounded.applicability.applicable(bits) == expected, bin(bits)
    for det in det_problems(grounded, deltas):
        for bits in states:
            assert (det.applicability.applicable(bits)
                    == scan(det.actions, bits)), bin(bits)


def assert_stripping_exact(grounded, deltas, states) -> int:
    """Every state holds the static atoms, and there the grounded problem and
    each det problem give what their actions' schema preconditions give:
    the applicable actions and the relaxed task's whole ``(h, helpful)``;
    returns the states checked per problem."""
    static = static_atoms(grounded)
    whole = schema_preconditions(grounded)
    problems = [grounded] + det_problems(grounded, deltas)
    for problem in problems:
        task = problem.relaxed_task
        plain = RelaxedTask(task.atom_names,
                            [(i, whole[i][0], add) for i, _, add in task.entries],
                            task.goal_mask, grounded.initial_state)
        for bits in states:
            assert bits & static == static
            assert problem.applicability.applicable(bits) == [
                i for i, (pos, neg) in enumerate(whole)
                if bits & pos == pos and not bits & neg], bin(bits)
            assert task.evaluate(bits) == plain.evaluate(bits), bin(bits)
    return len(problems) * len(states)


def assert_no_static_precondition(grounded) -> int:
    """No positive precondition holds a static atom, and each is its
    schema's with exactly the static atoms left out; returns the actions
    that lost one."""
    static = static_atoms(grounded)
    whole = schema_preconditions(grounded)
    for a, (pos, neg) in zip(grounded.actions, whole):
        assert not a.pre_pos_mask & static, a.name
        assert (a.pre_pos_mask, a.pre_neg_mask) == (pos & ~static, neg), a.name
    return sum(pos != a.pre_pos_mask
               for a, (pos, _) in zip(grounded.actions, whole))


def random_cases(count: int):
    """(grounded, every determinization, reachable states) of random
    domains with at most 64 determinizations."""
    rng = random.Random(12)
    cases = 0
    while cases < count:
        schema, prob = random_domain(rng, n_atoms=6)
        if determinization_count(schema) > 64:
            continue
        deltas = enumerate_determinizations(schema)
        grounded = ground(schema, prob)
        cases += 1
        yield grounded, deltas, reachable(grounded, 10_000), rng


def read_input(domain: str, problem: str):
    schema = parse_domain((INPUTS / f"{domain}-domain.ppddl").read_text())
    text = (INPUTS / f"{problem}-problem.ppddl").read_text()
    problem_def = parse_problem(text, schema)
    return schema, problem_def, ground(schema, problem_def)


INSTANCES = {
    "triangle-3": lambda: read_input("triangle", "triangle-3"),
    "triangle-4": lambda: read_input("triangle", "triangle-4"),
    "triangle-5": lambda: read_input("triangle", "triangle-5"),
    "triangle-10": lambda: read_input("triangle", "triangle-10"),
    "trap-10": lambda: read_input("trap", "trap-10"),
    "gen-triangle-2": lambda: load(*gen_triangle_tireworld(2)),
    "gen-trap-100": lambda: load(*gen_trap(100)),
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    schema, _, grounded = INSTANCES[request.param]()
    deltas = [mlo_determinization(schema)]
    if schema.name == "triangle-tire":
        deltas.append(FLAT_DELTA)
    return grounded, deltas, reachable(grounded, 1_000)


def test_index_matches_scan_on_random_domains():
    checked = 0
    for grounded, deltas, states, rng in random_cases(300):
        states += random_bitsets(rng, len(grounded.atoms), 10)
        assert_index_matches_scan(grounded, deltas, states)
        checked += len(states)
    assert checked > 10_000


def test_index_matches_scan_on_instances(instance):
    grounded, deltas, states = instance
    states = states + random_bitsets(random.Random(13), len(grounded.atoms), 30)
    assert_index_matches_scan(grounded, deltas, states)


def test_stripped_task_matches_unstripped_on_random_domains():
    checked = 0
    for grounded, deltas, states, _ in random_cases(300):
        checked += assert_stripping_exact(grounded, deltas, states)
    assert checked > 20_000


def test_stripped_task_matches_unstripped_on_instances(instance):
    grounded, deltas, states = instance
    assert static_atoms(grounded)  # roads, spares or pits
    assert assert_stripping_exact(grounded, deltas, states) >= len(states)


def test_no_precondition_holds_a_static_atom_on_random_domains():
    stripped = 0
    for grounded, _, _, _ in random_cases(300):
        stripped += assert_no_static_precondition(grounded)
    assert stripped > 10


def test_no_precondition_holds_a_static_atom_on_instances(instance):
    grounded, _, _ = instance
    assert assert_no_static_precondition(grounded) > 0


def test_static_atoms_are_the_untouched_init_roads(triangle1):
    _, _, grounded = triangle1
    static = set(grounded.atom_names(static_atoms(grounded)))
    # the roads and nothing else; spares are loaded, the car moves, tires go flat
    assert static and all(name.startswith("(road ") for name in static)
    assert {name for name in grounded.atom_names(grounded.initial_state)
            if name.startswith("(road ")} == static


def test_each_move_loses_exactly_its_road(triangle1):
    _, _, grounded = triangle1
    whole = schema_preconditions(grounded)
    moves = [(a, pos) for a, (pos, _) in zip(grounded.actions, whole)
             if a.schema_name == "move-car"]
    assert moves
    for a, pos in moves:
        lost = grounded.atom_names(pos & ~a.pre_pos_mask)
        assert lost == [a.name.replace("(move-car ", "(road ")], a.name


def test_index_keys_moves_on_the_car_position():
    # triangle-10's 291 actions: the one true (vehicle-at ...) atom of
    # :init outranks the 40 (spare-in ...) atoms, and it ties with
    # (not-flattire), which every move-car uses, so every move-car and
    # loadtire is keyed on the car's position; changetire has (hasspare)
    _, _, grounded = read_input("triangle", "triangle-10")
    index = grounded.applicability
    assert index.unkeyed == []
    for key, positions in index.keyed.items():
        name = grounded.atoms[key.bit_length() - 1]
        schemas = {grounded.actions[i].schema_name for i in positions}
        if name == "(hasspare)":
            assert schemas == {"changetire"}
        else:
            assert name.startswith("(vehicle-at ") and "changetire" not in schemas
    assert sum(map(len, index.keyed.values())) == len(grounded.actions) == 291


# ── the reduced model's backup records ───────────────────────────────────────

def reduced_cases():
    """Reduced models at k = 0, 1, 2 over the states reachable in triangle-3."""
    schema, _, grounded = read_input("triangle", "triangle-3")
    states = reachable(grounded, 3_000)
    for k in (0, 1, 2):
        yield make_reduction(grounded, mlo_determinization(schema), k), states


def test_memoized_successors_equal_a_fresh_computation():
    """Each backup record holds every applicable action's fresh successor
    list, and is built once."""
    checked = 0
    for model, states in reduced_cases():
        tables = SolverTables()
        for bits in states:
            for j in range(model.k + 1):
                aug = AugmentedState(State(bits), j)
                record = _backup_record(tables, model, aug)
                assert [a for a, _ in record] == model.applicable(aug)
                for action_id, succs in record:
                    assert succs == model.reduced_successors(aug, action_id)
                    checked += 1
                # a repeated call returns the stored record itself
                assert _backup_record(tables, model, aug) is record
    assert checked > 1000


def test_memoized_applicable_equals_a_fresh_computation():
    for model, states in reduced_cases():
        for bits in states:
            expected = scan(model.problem.actions, bits)
            for j in range(model.k + 1):
                aug = AugmentedState(State(bits), j)
                assert model.applicable(aug) == expected
                assert [a for a, _ in _backup_record(
                    SolverTables(), model, aug)] == expected


def test_memo_still_raises_on_every_inapplicable_call():
    for model, states in reduced_cases():
        bits = states[0]
        applicable = set(model.applicable(AugmentedState(State(bits), 0)))
        bad = next(i for i in range(len(model.problem.actions))
                   if i not in applicable)
        good = min(applicable)
        aug = AugmentedState(State(bits), 0)
        for _ in range(2):
            with pytest.raises(NotApplicableError):
                model.reduced_successors(aug, bad)
            model.reduced_successors(aug, good)
        with pytest.raises(NotApplicableError):
            model.reduced_successors(aug, bad)
