"""Command-line interface.

Subcommands: plan, simulate, learn-det, bench, detplan, oracle, gen.
All randomness flows from --seed (default from SSPKIT_SEED); runs with
identical flags and seed produce byte-identical CSV/JSON outputs. Timing
figures are only emitted under --timings since they would break that
reproducibility guarantee.

Exit codes: 0 success, 2 parse/config failure, 3 grounding failure,
4 solve failure.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import os
import shlex
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .detplan import (DEFAULT_EXPANSION_BUDGET, solve_deterministic,
                      solve_with_external)
from .domains import GENERATORS
from .errors import (CapExceededError, ExternalPlannerError,
                     GroundingBlowupError, IterationLimitError, ParseError,
                     SspkitError)
from .executor import (DEFAULT_ACTION_CAP, DEFAULT_TIME_BUDGET,
                       monte_carlo_evaluate, serve_rounds)
from .grounding import GroundedProblem, ground
from .learner import enumerate_determinizations, learning_det
from .oracle import DEFAULT_STATE_CAP, enumerate_model, value_iteration
from .ppddl import DomainSchema, parse_domain, parse_problem
from .reduction import Determinization, make_reduction, mlo_determinization
from .solver import (DEFAULT_EPSILON, DEFAULT_M_CAP, SolverConfig, ff_lao_star,
                     policy_size)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GROUND = 3
EXIT_SOLVE = 4

# Exit code of an error by its class; every other error main() catches
# (parse, configuration, file-system) exits EXIT_PARSE.
EXIT_CODES = (((GroundingBlowupError, CapExceededError), EXIT_GROUND),
              ((IterationLimitError, ExternalPlannerError), EXIT_SOLVE))

# The determinization sources, in the order the options are declared.
DET_SOURCES = ("file", "mlo", "index", "learn")
DET_FLAGS = tuple(f"--det-{source}" for source in DET_SOURCES)


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be >= 0")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} must be > 0")
    return value


def _pos_float(text: str) -> float:
    value = float(text)
    # nan and inf would silently switch off a convergence test, cost cap
    # or time budget
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{value} must be finite and > 0")
    return value


def _command(text: str) -> list[str]:
    """The words of a command line, split as a POSIX shell splits them."""
    try:
        words = shlex.split(text)
    except ValueError as exc:  # an unclosed quote or a trailing escape
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not words:
        raise argparse.ArgumentTypeError("the command is blank")
    return words


class _Given(argparse.Action):
    """Store the value (``const`` for a flag) and append the first flag to
    ``args.given``: an option set to its default value is given all the same."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given += tuple(self.option_strings[:1])


class _Parser(argparse.ArgumentParser):
    """A parser whose "store" and "store_true" options, its subcommands'
    included, record themselves in ``args.given``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Given)
        self.register("action", "store_true",
                      partial(_Given, nargs=0, const=True, default=False))
        self.set_defaults(given=())


def _det_source(args) -> tuple[str, str | int | bool] | None:
    """The determinization source given, as (source, option value), or None."""
    for source in DET_SOURCES:
        if f"--det-{source}" in args.given:
            return source, getattr(args, f"det_{source}")
    return None


def _read(path: str) -> str:
    """The file's text, decoded as UTF-8 whatever the locale, without a
    leading byte-order mark; positions count from after the mark."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        col = len(data[line_start:exc.start].decode("utf-8")) + 1
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", path,
                         data.count(b"\n", 0, line_start) + 1, col) from None


def _load_domain(path: str) -> DomainSchema:
    return parse_domain(_read(path), filename=path)


def _load_grounded(args) -> GroundedProblem:
    schema = _load_domain(args.domain)
    problem = parse_problem(_read(args.problem), schema, filename=args.problem)
    return ground(schema, problem)


def _resolve_delta(args, schema: DomainSchema) -> Determinization:
    given = _det_source(args)
    if given is None:
        *offered, last = (f"--det-{source}" for source in DET_SOURCES
                          if hasattr(args, f"det_{source}"))
        raise ValueError("a determinization source is required "
                         f"({', '.join(offered)} or {last})")
    source, value = given
    if source == "file":
        delta = Determinization.from_text(_read(value), value)
        delta.validate(schema)
        return delta
    if source == "mlo":
        return mlo_determinization(schema)
    if source == "index":
        deltas = enumerate_determinizations(schema)
        if value >= len(deltas):
            raise ValueError(f"--det-index {value} out of range "
                             f"({len(deltas)} determinizations)")
        return deltas[value]
    training = parse_problem(_read(value), schema, filename=value)
    # the command's settings where it has them, learning_det's defaults
    # otherwise; --time-budget bounds the command's evaluation, not learning
    counts = {key: getattr(args, key) for key in ("rounds", "max_actions")
              if hasattr(args, key)}
    delta, _ = learning_det(schema, training, k=args.k, seed=args.seed,
                            epsilon=args.epsilon, cfg=_solver_config(args),
                            **counts)
    return delta


def _config_echo(args) -> dict:
    """The run parameters a report echoes as its ``config`` object."""
    source, value = _det_source(args)
    out = {"det_source": source, "k": args.k, "epsilon": args.epsilon,
           "m_cap": args.m_cap, "seed": args.seed}
    if source != "mlo":
        out["det_value"] = value
    for key in ("rounds", "max_actions"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def _solver_config(args) -> SolverConfig:
    """The command's solver settings; ``detplan solve`` has no ``--m-cap``."""
    return SolverConfig(epsilon=args.epsilon,
                        m_cap=getattr(args, "m_cap", DEFAULT_M_CAP),
                        subplanner_budget=args.subplanner_budget)


def _delta_text(delta: Determinization) -> str:
    return ";".join(f"{name}/{c}={idx}"
                    for (name, c), idx in sorted(delta.choices.items()))


def _write_output(text: str, path: str | Path | None) -> None:
    """Write ``text`` as UTF-8 to ``path``, or to stdout without a path,
    whatever the stdio encoding."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.buffer.write(text.encode("utf-8"))


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(columns, rows) -> str:
    """A CSV report: the schema line, the header, then one line per row,
    with a cell quoted where it holds a comma, a quote or a line break."""
    out = io.StringIO()
    out.write(f"# schema_version: {SCHEMA_VERSION}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


# ── plan ─────────────────────────────────────────────────────────────────────

def cmd_plan(args) -> int:
    grounded = _load_grounded(args)
    delta = _resolve_delta(args, grounded.schema)
    model = make_reduction(grounded, delta, args.k)
    tables, report = ff_lao_star(model, _solver_config(args))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "domain": grounded.schema.name,
        "problem": grounded.problem_name,
        "determinization": _delta_text(delta),
        "config": _config_echo(args),
        "v_initial": report.v_root,
        "converged": True,
        "expansions": report.expansions,
        "sweeps": report.sweeps,
        "subplanner_calls": report.subplanner_calls,
        "subplanner_failures": report.subplanner_failures,
        "subplanner_timeouts": report.subplanner_timeouts,
        "residual_trace": [r if math.isfinite(r) else None
                           for r in report.residual_trace],
        "policy_size": policy_size(tables, model, model.initial),
    }
    if args.timings:
        payload["wall_time"] = report.wall_time
    _write_output(_json_dump(payload), args.out)
    return EXIT_OK


# ── simulate ────────────────────────────────────────────────────────────────

def cmd_simulate(args) -> int:
    grounded = _load_grounded(args)
    if args.serve_stdio:
        serve_rounds(grounded, sys.stdin.buffer, sys.stdout,
                     rounds=args.rounds, seed=args.seed,
                     max_actions=args.max_actions, m_cap=args.m_cap)
        return EXIT_OK
    delta = _resolve_delta(args, grounded.schema)
    stats, reports = monte_carlo_evaluate(
        grounded, delta, args.k, args.epsilon, args.rounds, args.seed,
        max_actions=args.max_actions, time_budget=args.time_budget,
        cfg=_solver_config(args))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "domain": grounded.schema.name,
        "problem": grounded.problem_name,
        "determinization": _delta_text(delta),
        "config": _config_echo(args),
        "rounds": [r.as_dict(timings=args.timings) for r in reports],
        "stats": stats.as_dict(),
    }
    _write_output(_json_dump(payload), args.out)
    if args.csv:
        # one row per round: its index, then the fields of its report
        rounds = payload["rounds"]
        rows = [[i, *r.values()] for i, r in enumerate(rounds)]
        _write_output(_csv(["round", *rounds[0]], rows), args.csv)
    return EXIT_OK


# ── learn-det ───────────────────────────────────────────────────────────────

def cmd_learn_det(args) -> int:
    schema = _load_domain(args.domain)
    training = parse_problem(_read(args.training_problem), schema,
                             filename=args.training_problem)
    delta, ranked = learning_det(
        schema, training, k=args.k, rounds=args.rounds, seed=args.seed,
        epsilon=args.epsilon, max_actions=args.max_actions,
        time_budget=args.time_budget, workers=args.workers)
    if args.out:
        _write_output(delta.to_text(), args.out)
    columns = ["rank", "index", "determinization", "success_probability",
               "expected_cost", "solve_time"]
    rows = [[rank, cand.index, _delta_text(cand.delta),
             cand.stats.success_probability, cand.stats.expected_cost,
             cand.solve_time if args.timings else ""]
            for rank, cand in enumerate(ranked)]
    _write_output(_csv(columns, rows), args.report_csv)
    return EXIT_OK


# ── bench ───────────────────────────────────────────────────────────────────

def cmd_bench(args) -> int:
    schema = _load_domain(args.domain)
    delta = _resolve_delta(args, schema)
    rows = []
    for path in args.problems:
        problem = parse_problem(_read(path), schema, filename=path)
        grounded = ground(schema, problem)
        row = {"problem": problem.name, "path": path,
               "determinization": _delta_text(delta), "k": args.k}
        try:
            stats, reports = monte_carlo_evaluate(
                grounded, delta, args.k, args.epsilon, args.rounds, args.seed,
                max_actions=args.max_actions, time_budget=args.time_budget,
                cfg=_solver_config(args))
            row.update(rounds_solved=stats.successes, rounds_total=stats.rounds,
                       success_probability=stats.success_probability,
                       expected_cost=stats.expected_cost)
            if args.timings:
                row["wall_time"] = sum(r.wall_time for r in reports)
        except IterationLimitError as exc:
            row.update(error=str(exc), rounds_solved=0, rounds_total=args.rounds,
                       success_probability=0.0, expected_cost=args.m_cap)
        rows.append(row)
    payload = {"schema_version": SCHEMA_VERSION, "domain": schema.name,
               "config": _config_echo(args), "results": rows}
    if args.json:
        _write_output(_json_dump(payload), args.json)
    columns = ["problem", "rounds_solved", "rounds_total", "success_probability",
               "expected_cost", *(["wall_time"] if args.timings else [])]
    # a row whose evaluation failed has no wall time
    _write_output(_csv(columns, [[row.get(column, 0.0) for column in columns]
                                 for row in rows]), args.csv)
    return EXIT_OK


# ── detplan ─────────────────────────────────────────────────────────────────

def cmd_detplan_solve(args) -> int:
    grounded = _load_grounded(args)
    delta = _resolve_delta(args, grounded.schema)
    det = make_reduction(grounded, delta, args.k).det_problem
    if args.external:
        result = solve_with_external(det, grounded.initial_state,
                                     args.external)
    else:
        result = solve_deterministic(det, grounded.initial_state,
                                     budget=args.subplanner_budget,
                                     mode="optimal" if args.optimal else "greedy")
    if not result.found:
        print(f"no plan: {result.status}", file=sys.stderr)
        return EXIT_SOLVE
    lines = ["; status = plan", f"; cost = {result.cost!r}"]
    for _, action_id in result.steps:
        lines.append(grounded.actions[action_id].name)
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ── oracle ──────────────────────────────────────────────────────────────────

def _oracle_model(args):
    grounded = _load_grounded(args)
    source = (make_reduction(grounded, _resolve_delta(args, grounded.schema), args.k)
              if args.reduced else grounded)
    return grounded, enumerate_model(source, cap=args.cap_states)


def cmd_oracle_vi(args) -> int:
    grounded, explicit = _oracle_model(args)
    values, policy = value_iteration(explicit, epsilon=args.epsilon,
                                     m_cap=args.m_cap)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "problem": grounded.problem_name,
        "states": explicit.n_states,
        "epsilon": args.epsilon,
        "m_cap": args.m_cap,
        "v_initial": values[explicit.initial],
    }
    if args.full:
        payload["values"] = values
        payload["policy"] = policy
    _write_output(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_oracle_enumerate(args) -> int:
    grounded, explicit = _oracle_model(args)
    states = [{"index": i, "atoms": grounded.atom_names(label.state.bits),
               "j": label.j, "goal": goal} if args.reduced else
              {"index": i, "atoms": grounded.atom_names(label), "goal": goal}
              for i, (label, goal) in enumerate(zip(explicit.labels, explicit.goal))]
    transitions = [{"state": i, "action": grounded.actions[action_id].name,
                    "successors": [[s2, p] for s2, p in succs], "cost": 1.0}
                   for i, rows in enumerate(explicit.actions)
                   for action_id, succs in rows]
    payload = {"schema_version": SCHEMA_VERSION,
               "problem": grounded.problem_name,
               "states": states, "transitions": transitions}
    _write_output(_json_dump(payload), args.out)
    return EXIT_OK


# ── gen ─────────────────────────────────────────────────────────────────────

def cmd_gen(args) -> int:
    generator, size_option = GENERATORS[args.kind]
    sizes = [getattr(args, size_option)] if size_option else []
    tag = "-".join([args.kind, *map(str, sizes)])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for part, text in zip(("domain", "problem"), generator(*sizes)):
        path = out_dir / f"{tag}-{part}.ppddl"
        _write_output(text, path)
        _write_output(f"{path}\n", None)
    return EXIT_OK


# ── options a mode does not read ────────────────────────────────────────────

def _unread(args):
    """The modes the command line selects, each as (an error message whose {}
    stands for the options it names, the options the mode does not read)."""
    if args.func is cmd_simulate and args.serve_stdio:
        # the client chooses the actions, and the server writes no report
        yield "--serve-stdio does not take {}", (
            *DET_FLAGS, "--k", "--epsilon", "--time-budget", "--subplanner-budget",
            "--out", "--csv", "--timings")
    if args.func in (cmd_oracle_vi, cmd_oracle_enumerate) and not args.reduced:
        yield "{} require{s} --reduced", ("--k", *DET_FLAGS)
    if args.func is cmd_detplan_solve:
        # the induced deterministic problem does not depend on --k, and the
        # external planner runs its own search; learning reads the rest
        if args.external:
            yield "--external does not take {}", (
                "--optimal", *(() if args.det_learn else ("--subplanner-budget",)))
        if not args.det_learn:
            yield "{} require{s} --det-learn", ("--k", "--epsilon", "--seed")
    if args.func is cmd_gen:
        own = GENERATORS[args.kind][1]
        yield "gen " + args.kind + " does not take {}", tuple(
            "--" + size.replace("_", "-") for _, size in GENERATORS.values()
            if size not in (None, own))


def _reject_unread(args) -> None:
    """Raise naming the options given that the selected mode does not read."""
    for message, options in _unread(args):
        named = [option for option in options if option in args.given]
        if named:
            raise ValueError(message.format(", ".join(named),
                                            s="s" if len(named) == 1 else ""))


# ── parser assembly ─────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    # The options more than one subcommand takes. A string default goes
    # through type=int only when --seed is absent, so a malformed
    # SSPKIT_SEED is a usage error (exit 2), not seed 0.
    shared = {
        "--det-file": dict(metavar="FILE",
                           help="determinization file (schema/clause -> outcome)"),
        "--det-mlo": dict(action="store_true", help="most-likely-outcome determinization"),
        "--det-index": dict(type=_nonneg_int, metavar="N",
                            help="the N-th enumerated determinization"),
        "--det-learn": dict(metavar="PROBLEM", help="learn the determinization on PROBLEM"),
        "--domain": dict(required=True, help="domain file"),
        "--problem": dict(required=True, help="problem file"),
        "--k": dict(type=_nonneg_int, default=0, help="exception bound (default 0)"),
        "--epsilon": dict(type=_pos_float, default=DEFAULT_EPSILON,
                          help="convergence tolerance (default %(default)g)"),
        "--m-cap": dict(type=_pos_float, default=DEFAULT_M_CAP,
                        help="dead-end cost cap (default %(default)g)"),
        "--subplanner-budget": dict(
            type=_pos_int, default=DEFAULT_EXPANSION_BUDGET,
            help="expansions per sub-planner call (default %(default)s)"),
        "--seed": dict(type=int, default=os.environ.get("SSPKIT_SEED", "0"),
                       help="master seed (default: SSPKIT_SEED or 0)"),
        "--timings": dict(action="store_true", help="add wall-clock fields to outputs"),
        "--rounds": dict(type=_pos_int, default=50,
                         help="rounds per evaluation (default %(default)s)"),
        "--max-actions": dict(type=_pos_int, default=DEFAULT_ACTION_CAP,
                              help="actions per round (default %(default)s)"),
        "--time-budget": dict(type=_pos_float, default=DEFAULT_TIME_BUDGET,
                              help="seconds per evaluation (default %(default)s)"),
    }
    planning = ("--k", "--epsilon", "--m-cap", "--subplanner-budget", "--seed",
                "--timings")

    def take(parser, *flags, **overrides):
        for flag in flags:
            parser.add_argument(flag, **{**shared[flag], **overrides})

    parser = _Parser(
        prog="sspkit",
        description="Stochastic shortest path planning with reduced models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a reduced model")
    take(p, "--domain", "--problem", *planning)
    take(p.add_mutually_exclusive_group(required=True), *DET_FLAGS)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="execute a policy with replanning")
    take(p, "--domain", "--problem", *planning, "--rounds", "--max-actions",
         "--time-budget")
    take(p.add_mutually_exclusive_group(), *DET_FLAGS)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--csv", help="per-round CSV path")
    p.add_argument("--serve-stdio", action="store_true",
                   help="serve the stdio state/action protocol instead of "
                        "planning (reads only --domain, --problem, --rounds, "
                        "--max-actions, --m-cap and --seed)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn-det", help="learn the best determinization")
    take(p, "--domain")
    p.add_argument("--training-problem", required=True,
                   help="problem the candidates are scored on")
    take(p, "--k", "--epsilon", "--rounds", "--max-actions")
    take(p, "--time-budget", default=None,
         help="seconds for all candidates, split evenly among them "
              "(default: no budget)")
    take(p, "--seed", "--timings")
    p.add_argument("--workers", type=_pos_int, default=1, help="worker processes")
    p.add_argument("--out", help="winning determinization file")
    p.add_argument("--report-csv", help="ranked CSV path (default stdout)")
    p.set_defaults(func=cmd_learn_det)

    p = sub.add_parser("bench", help="run an ordered list of problems")
    take(p, "--domain", *planning, "--rounds", "--max-actions", "--time-budget")
    take(p.add_mutually_exclusive_group(required=True), *DET_FLAGS)
    p.add_argument("--problems", nargs="*", default=[],
                   help="problem files, ordered by size")
    p.add_argument("--csv", help="results CSV path (default stdout)")
    p.add_argument("--json", help="results JSON path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("detplan", help="deterministic sub-planner tools")
    det_sub = p.add_subparsers(dest="detplan_command", required=True)
    ps = det_sub.add_parser("solve", help="solve the induced deterministic problem")
    take(ps, "--domain", "--problem", "--k", "--epsilon", "--subplanner-budget",
         "--seed")
    take(ps.add_mutually_exclusive_group(required=True), *DET_FLAGS)
    ps.add_argument("--optimal", action="store_true",
                    help="breadth-first search (shortest plans)")
    ps.add_argument("--external", metavar="CMD", type=_command,
                    help="shell out to an external planner command")
    ps.add_argument("--out", help="plan text path (default stdout)")
    ps.set_defaults(func=cmd_detplan_solve)

    p = sub.add_parser("oracle", help="exact reference solvers")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    for name, func in (("vi", cmd_oracle_vi), ("enumerate", cmd_oracle_enumerate)):
        po = oracle_sub.add_parser(name)
        take(po, "--domain", "--problem", "--k",
             *(("--epsilon", "--m-cap") if name == "vi" else ()))
        po.add_argument("--reduced", action="store_true",
                        help="enumerate the reduced model instead of the base SSP")
        take(po.add_mutually_exclusive_group(), *DET_FLAGS[:3])
        po.add_argument("--cap-states", type=_pos_int, default=DEFAULT_STATE_CAP)
        po.add_argument("--out", help="JSON path (default stdout)")
        if name == "vi":
            po.add_argument("--full", action="store_true",
                            help="include the full value/policy tables")
        po.set_defaults(func=func)

    p = sub.add_parser("gen", help="generate bundled domains")
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("--n", type=_pos_int, default=1, help="triangle size")
    p.add_argument("--length", type=_pos_int, default=2, help="chain length")
    p.add_argument("--walk-length", type=_pos_int, default=10, help="trap walkway length")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _reject_unread(args)
        return args.func(args)
    except (SspkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for classes, code in EXIT_CODES
                     if isinstance(exc, classes)), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
