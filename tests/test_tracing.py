"""The benchmark's tracer still finds every callable it wraps.

``benchmark/tracing.py`` replaces sspkit callables at the names their
callers look them up by; a renamed or inlined callable makes ``install``
fail, or leaves its wrapper uncalled and its counts at zero. The same
run pins the heuristic's and the sub-planner's exact work."""

import importlib.util
from pathlib import Path

from sspkit import executor, grounding, ppddl
from sspkit.domains import gen_triangle_tireworld

from conftest import FLAT_DELTA

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_sees_its_calls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        domain_text, problem_text = gen_triangle_tireworld(1)
        schema = ppddl.parse_domain(domain_text)
        grounded = grounding.ground(schema, ppddl.parse_problem(problem_text, schema))
        executor.monte_carlo_evaluate(grounded, FLAT_DELTA, 1, 1e-3, 2, 0)
    finally:
        tracer.restore()
    metrics, _ = tracer.take()
    assert metrics["executor.rounds"] == 2
    for name in ("grounding.actions", "reduction.successor_calls",
                 "reduction.applicable_calls", "detplan.h_calls",
                 "detplan.plan_calls", "solver.solves", "solver.sweeps",
                 "solver.expansions", "solver.bellman_updates",
                 "executor.actions"):
        assert metrics[name] > 0, name
    assert metrics["ppddl.parse_s"] > 0 and metrics["reduction.reduce_s"] > 0
    # the search work of this run: a change to the heuristic or the
    # sub-planner that is meant to keep every result exact keeps these too;
    # the sub-planner runs only where no stored plan suffix runs to the goal
    assert {name: metrics[name] for name in (
        "detplan.h_calls", "detplan.h_states", "detplan.plan_calls",
        "detplan.plan_expansions")} == {
        "detplan.h_calls": 47, "detplan.h_states": 41,
        "detplan.plan_calls": 3, "detplan.plan_expansions": 14}
