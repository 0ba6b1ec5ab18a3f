"""Seeded end-to-end benchmark of sspkit, with an optional traced mode.

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file:

    python3 benchmark/run.py --workload replan-k2 --seed 1 --seconds 25 --trace 0

A run sets the workload up ``setup_repeats`` times (``--trace 1``: once),
then, on a workload that reuses the set-up's grounded problem, runs one
warm-up operation, then runs operations until ``--seconds`` have passed.
Set-up and operation times are scaled to a reference host speed
(``ScaledClock``). Every operation is checked against properties
derived apart from the program (see README.md). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. ``--workload all`` runs every workload, each in its own
process, and prints their results together.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
RESULTS = HERE / "results"

EPSILON = 1e-3
Z_BOUND = 4.0  # standard errors the mean round cost may stray from V*
CALIBRATION_LOOP = 150_000
CALIBRATION_REF_S = 0.0125  # the calibration's time on a quiet host


def import_program():
    """Import sspkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sspkit" / "__init__.py").is_file():
        sys.exit(f"error: no sspkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sspkit
    if Path(sspkit.__file__).resolve().parent != SRC / "sspkit":
        sys.exit(f"error: imported sspkit from {sspkit.__file__}, "
                 f"not from {SRC}")
    return sspkit


sspkit = import_program()
from sspkit import executor, grounding, learner, ppddl, reduction  # noqa: E402

import tracing  # noqa: E402


def read_inputs(domain_file: str, *problem_files: str):
    """Parse one domain and its problems from the committed input files."""
    schema = ppddl.parse_domain((INPUTS / domain_file).read_text(),
                                filename=domain_file)
    problems = [ppddl.parse_problem((INPUTS / f).read_text(), schema,
                                    filename=f)
                for f in problem_files]
    return schema, problems


# ── checks made apart from the program ──────────────────────────────────────

def triangle_round_errors(n: int, reports) -> list[str]:
    """Rounds of the always-flat policy on triangle-n.

    The car makes 4n moves along the outer edges; each of the 4n-1
    non-final moves goes flat with probability 1/2 and a flat costs 2 to
    repair. So a round costs 4n + 2F with F ~ Binomial(4n-1, 1/2): an even
    number in [4n, 12n-2], mean V* = 8n-1 and variance 4n-1.
    """
    errors = []
    for r in reports:
        if r.outcome != "goal":
            errors.append(f"round {r.seed} ended {r.outcome}")
        elif r.accumulated_cost != r.actions_taken:
            errors.append(f"round {r.seed} cost {r.accumulated_cost} "
                          f"!= {r.actions_taken} actions")
        elif not (4 * n <= r.actions_taken <= 12 * n - 2
                  and r.actions_taken % 2 == 0):
            errors.append(f"round {r.seed} cost {r.actions_taken} outside "
                          f"{{{4 * n}, {4 * n + 2}, ..., {12 * n - 2}}}")
    if not errors:
        mean = sum(r.accumulated_cost for r in reports) / len(reports)
        v_star = 8 * n - 1
        se = math.sqrt((4 * n - 1) / len(reports))
        if abs(mean - v_star) > Z_BOUND * se:
            errors.append(f"mean round cost {mean} is more than {Z_BOUND} "
                          f"standard errors ({se:.3f}) from V* = {v_star}")
    return errors


def learned_errors(ranked, key: tuple[str, int], winner: int,
                   winner_cost: float | None) -> list[str]:
    """The winner picks outcome ``winner`` for clause ``key`` and always
    succeeds (at ``winner_cost`` exactly, when given); the other candidate
    does not always succeed."""
    errors = []
    if len(ranked) != 2:
        return [f"{len(ranked)} candidates, expected 2"]
    best, other = ranked
    if best.delta.choices[key] != winner:
        errors.append(f"learned {key[0]}/{key[1]} -> "
                      f"{best.delta.choices[key]}, expected {winner}")
    if best.stats.success_probability != 1.0:
        errors.append(f"winner succeeds with p = "
                      f"{best.stats.success_probability}")
    if winner_cost is not None and best.stats.expected_cost != winner_cost:
        errors.append(f"winner costs {best.stats.expected_cost}, "
                      f"expected {winner_cost}")
    if other.stats.success_probability >= 1.0:
        errors.append("the losing candidate succeeds with p = 1")
    return errors


def rounds_signature(reports) -> tuple:
    return tuple((r.outcome, r.actions_taken, r.accumulated_cost, r.replans,
                  r.seed) for r in reports)


def ranking_signature(ranked) -> tuple:
    """A learned ranking, apart from each candidate's ``solve_time``."""
    return tuple((c.index, tuple(sorted(c.delta.choices.items())),
                  tuple(sorted(c.stats.as_dict().items())))
                 for c in ranked)


# ── workloads ───────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Evaluation:
    """Cold seeded evaluation of the most-likely-outcome determinization
    (on triangle, always flat) on triangle-n at exception bound k.

    With ``fresh_grounding`` each operation plans on a problem grounded
    afresh, outside its timed call, as every ``simulate`` does; without
    it, operations share the set-up's grounded problem and the heuristic
    cache that hangs off it, and the run starts with a warm-up."""

    n: int
    k: int
    rounds: int
    setup_repeats: int
    fresh_grounding: bool

    def setup(self):
        schema, (problem,) = read_inputs("triangle-domain.ppddl",
                                         f"triangle-{self.n}-problem.ppddl")
        grounded = grounding.ground(schema, problem)
        delta = reduction.mlo_determinization(schema)
        reduction.make_reduction(grounded, delta, self.k)
        return schema, problem, grounded, delta

    def prepare(self, state):
        schema, problem, grounded, delta = state
        if self.fresh_grounding:
            grounded = grounding.ground(schema, problem)
        return grounded, delta

    def operation(self, prepared, seed: int):
        grounded, delta = prepared
        _, reports = executor.monte_carlo_evaluate(
            grounded, delta, self.k, EPSILON, self.rounds, seed)
        return reports

    def check(self, reports) -> list[str]:
        return triangle_round_errors(self.n, reports)

    def signature(self, reports) -> tuple:
        return rounds_signature(reports)


@dataclass(frozen=True)
class LearnTransfer:
    """Learn at k=0 on triangle-3 and trap-W, then evaluate the learned
    triangle determinization on triangle-n, as ``simulate --det-learn``.
    Each operation plans on a target grounded afresh outside its timed
    call; ``learning_det`` grounds its training problem itself."""

    n: int
    trap_walk: int
    rounds: int
    setup_repeats: int
    fresh_grounding = True

    def setup(self):
        tri_schema, (tri_train, tri_target) = read_inputs(
            "triangle-domain.ppddl", "triangle-3-problem.ppddl",
            f"triangle-{self.n}-problem.ppddl")
        trap_schema, (trap_train,) = read_inputs(
            "trap-domain.ppddl", f"trap-{self.trap_walk}-problem.ppddl")
        # timed as a user's command grounds it; operations ground their own
        grounding.ground(tri_schema, tri_target)
        return tri_schema, tri_train, tri_target, trap_schema, trap_train

    def prepare(self, state):
        tri_schema, tri_train, tri_target, trap_schema, trap_train = state
        target = grounding.ground(tri_schema, tri_target)
        return tri_schema, tri_train, trap_schema, trap_train, target

    def operation(self, prepared, seed: int):
        tri_schema, tri_train, trap_schema, trap_train, target = prepared
        tri_delta, tri_ranked = learner.learning_det(
            tri_schema, tri_train, k=0, rounds=self.rounds, seed=seed,
            epsilon=EPSILON)
        _, trap_ranked = learner.learning_det(
            trap_schema, trap_train, k=0, rounds=self.rounds, seed=seed,
            epsilon=EPSILON)
        _, reports = executor.monte_carlo_evaluate(
            target, tri_delta, 0, EPSILON, self.rounds, seed)
        return tri_ranked, trap_ranked, reports

    def check(self, output) -> list[str]:
        tri_ranked, trap_ranked, reports = output
        return (learned_errors(tri_ranked, ("move-car", 0), 0, None)
                + learned_errors(trap_ranked, ("leap", 0), 1,
                                 float(self.trap_walk))
                + triangle_round_errors(self.n, reports))

    def signature(self, output) -> tuple:
        tri_ranked, trap_ranked, reports = output
        return (ranking_signature(tri_ranked), ranking_signature(trap_ranked),
                rounds_signature(reports))


WORKLOADS = {
    "replan-k2": Evaluation(n=4, k=2, rounds=20, setup_repeats=15,
                            fresh_grounding=True),
    "wide-k0": Evaluation(n=10, k=0, rounds=40, setup_repeats=3,
                          fresh_grounding=False),
    "learn-transfer": LearnTransfer(n=5, trap_walk=10, rounds=40,
                                    setup_repeats=10),
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {name: "s" for name in tracing.TIME_METRICS}
PER_LAYER_UNITS.update({name: "count" for name in tracing.COUNT_METRICS})


# ── one run ─────────────────────────────────────────────────────────────────

def calibration_s() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledClock:
    """Wall times, and wall times scaled to the reference host speed.

    On a shared virtual machine the host's speed can drift by a quarter
    and more over minutes, and sspkit's operations slow down in step with
    a plain interpreter loop.
    So every timed call is bracketed by calibrations, and its scaled time
    is its wall time times ``CALIBRATION_REF_S`` over the mean of the two
    calibration times: the time the call would take on a host where the
    loop takes ``CALIBRATION_REF_S``.
    """

    def __init__(self):
        self.calibrations = [calibration_s()]

    def time(self, fn):
        """Return ``fn()``, its wall time and its scaled time."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.calibrations.append(calibration_s())
        host_s = (self.calibrations[-2] + self.calibrations[-1]) / 2
        return result, wall, wall * CALIBRATION_REF_S / host_s


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        return _run(name, workload, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()


def _run(name, workload, seed, seconds, tracer) -> dict:
    clock = ScaledClock()
    setup_times: list[tuple[float, float]] = []  # (wall, scaled)
    for _ in range(1 if tracer else workload.setup_repeats):
        state, *times = clock.time(workload.setup)
        setup_times.append(times)
    if tracer:
        setup_layers, setup_spans = tracer.take()

    attempted = failed = 0
    wrong = False  # an operation's output failed a check
    reference = None
    op_times: list[tuple[float, float]] = []  # (wall, scaled)
    op_layers: list[dict] = []
    first_op_spans = None

    def operation() -> bool:
        nonlocal attempted, failed, wrong, reference, first_op_spans
        attempted += 1
        prepared = workload.prepare(state)
        if tracer:
            tracer.take()  # the untimed preparation is no operation's work
        try:
            output, *times = clock.time(
                lambda: workload.operation(prepared, seed))
        except sspkit.SspkitError as exc:
            failed += 1
            print(f"operation {attempted} failed: {exc!r}", file=sys.stderr)
            return False
        finally:
            if tracer:
                layers, spans = tracer.take()
        errors = workload.check(output)
        signature = workload.signature(output)
        if reference is None:
            reference = signature
        elif signature != reference:
            errors.append("output differs from the first operation's")
        if errors:
            failed += 1
            wrong = True
            for e in errors:
                print(f"operation {attempted}: {e}", file=sys.stderr)
            return False
        op_times.append(times)
        if tracer:
            op_layers.append(layers)
            if first_op_spans is None:
                first_op_spans = spans
        return True

    if not workload.fresh_grounding:
        operation()  # warm-up: checked, not timed
    warm_up = len(op_times)
    start = time.perf_counter()
    while True:
        operation()
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    timed = op_times[warm_up:]
    if not timed:
        sys.exit(f"error: none of {attempted} operations passed its checks")

    result = {"correct": not wrong, "attempted": attempted,
              "failed": failed}
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": statistics.median(s for _, s in setup_times),
                  "ops_per_s": 1 / statistics.median(s for _, s in timed),
                  "peak_rss_mb": rss_mb}
        units = END_TO_END_UNITS
        detail = {"wall_ops_per_s": len(timed) / elapsed,
                  "setup_times": setup_times, "op_times": op_times,
                  "calibrations": clock.calibrations}
    else:
        values, counts_ok = _layer_values(setup_layers, op_layers, warm_up)
        if not counts_ok:
            result["correct"] = False
            print("per-layer counts differ between operations",
                  file=sys.stderr)
        if not _counts_repeat(name, seed, values):
            result["correct"] = False
        units = PER_LAYER_UNITS
        detail = {"op_times": op_times, "setup_layers": setup_layers,
                  "spans": {"setup": setup_spans,
                            "first_operation": first_op_spans}}
    result["metrics"] = {m: {"value": values[m], "unit": units[m]}
                         for m in units}
    _write_result(name, seed, tracer is not None, result, detail)
    return result


def _layer_values(setup_layers: dict, op_layers: list[dict], warm_up: int):
    """One set-up plus one operation: counts from the first operation
    (every operation must repeat them), self times the median over the
    timed operations, which excludes a warm-up."""
    counts_ok = all(layers[m] == op_layers[0][m] for layers in op_layers
                    for m in tracing.COUNT_METRICS)
    timed = op_layers[warm_up:] or op_layers
    values = {}
    for m in tracing.COUNT_METRICS:
        values[m] = setup_layers[m] + op_layers[0][m]
    for m in tracing.TIME_METRICS:
        values[m] = (setup_layers[m]
                     + statistics.median(layers[m] for layers in timed))
    return values, counts_ok


def _source_digest() -> str:
    """Digest of the program and the benchmark, so stored counts are only
    compared with counts of the same code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("sspkit/*.py"), *HERE.glob("*.py"),
                        *INPUTS.glob("*.ppddl")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _counts_repeat(name: str, seed: int, values: dict) -> bool:
    """Compare this traced run's counts with the previous traced run of the
    same workload, seed and code, if there was one; then store them."""
    counts = {m: values[m] for m in tracing.COUNT_METRICS}
    digest = _source_digest()
    path = RESULTS / f"{name}-seed{seed}-counts.json"
    same = True
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["digest"] == digest and previous["counts"] != counts:
            same = False
            for m in tracing.COUNT_METRICS:
                if previous["counts"].get(m) != counts[m]:
                    print(f"{m}: {counts[m]} now, {previous['counts'].get(m)}"
                          " in the previous traced run", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps({"digest": digest, "counts": counts},
                               indent=1) + "\n")
    return same


def _write_result(name, seed, traced, result, detail) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps({**result, **detail}) + "\n")


def print_metrics(label: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{label:<16} {metric:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{label:<16} attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_metrics(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
