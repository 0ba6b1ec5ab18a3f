"""Bundled domain generator tests: structure and round-trips."""

import pytest

from sspkit.domains import (gen_chain, gen_retry, gen_trap,
                            gen_triangle_tireworld)
from sspkit.learner import enumerate_determinizations
from sspkit.oracle import enumerate_model
from sspkit.reduction import mlo_determinization

from conftest import load, optimal_plan, state_from_atoms


@pytest.mark.parametrize("n", range(1, 7))
def test_triangle_parses_and_grounds(n):
    schema, problem, grounded = load(*gen_triangle_tireworld(n))
    side = 2 * n + 1
    assert len(problem.objects) == side * (side + 1) // 2
    assert len(grounded.actions) > 0
    assert [str(a) for a in problem.goal] == [f"(vehicle-at l-1-{side})"]


def spare_roads(problem):
    spares = set()
    roads = []
    for atom in problem.init:
        if atom.pred == "spare-in":
            spares.add(atom.args[0])
        elif atom.pred == "road":
            roads.append(atom.args)
    return spares, roads


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangle_has_exactly_one_all_spares_path(n):
    _, problem, _ = load(*gen_triangle_tireworld(n))
    spares, roads = spare_roads(problem)
    start, goal = "l-1-1", f"l-1-{2 * n + 1}"
    adjacency: dict[str, list[str]] = {}
    for a, b in roads:
        adjacency.setdefault(a, []).append(b)

    def spared_paths(cell):
        if cell == goal:
            return 1
        total = 0
        for nxt in adjacency.get(cell, []):
            if nxt == goal or nxt in spares:
                total += spared_paths(nxt)
        return total

    assert spared_paths(start) == 1


def test_triangle_determinization_count():
    schema, _, _ = load(*gen_triangle_tireworld(1))
    assert len(enumerate_determinizations(schema)) == 2


def test_invalid_triangle_size():
    with pytest.raises(ValueError):
        gen_triangle_tireworld(0)
    with pytest.raises(ValueError, match="chain length must be >= 1"):
        gen_chain(0)


def test_chain_optimal_cost_equals_length():
    for length in (1, 2, 5):
        _, _, grounded = load(*gen_chain(length))
        cost, steps = optimal_plan(enumerate_model(grounded))
        assert cost == float(length)
        assert len(steps) == length


def test_retry_two_determinizations():
    schema, _, grounded = load(*gen_retry())
    assert len(enumerate_determinizations(schema)) == 2
    (attempt,) = grounded.actions
    assert [float(o.probability) for o in attempt.outcomes] == [0.5, 0.5]


def test_trap_structure():
    schema, problem, grounded = load(*gen_trap())
    mlo = mlo_determinization(schema)
    assert mlo.choices[("leap", 0)] == 0  # the 0.7 ledge outcome
    leaps = [a for a in grounded.actions if a.schema_name == "leap"]
    assert len(leaps) == 3
    walks = [a for a in grounded.actions if a.schema_name == "walk"]
    assert len(walks) == 10  # the walkway is 10 unit steps long
    # pit has no exits
    pit_state = state_from_atoms(grounded, (
        ["(at pit)"] + [a for a in grounded.atoms
                        if a.startswith(("(risky", "(walkway", "(pit"))]))
    from sspkit.model import applicable_actions
    assert applicable_actions(pit_state, grounded) == []


def test_trap_walkway_minimum():
    with pytest.raises(ValueError):
        gen_trap(walk_length=2)
