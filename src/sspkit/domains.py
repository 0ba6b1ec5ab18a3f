"""Bundled benchmark domain generators.

All generators return (domain_text, problem_text) in the supported PPDDL
subset. The triangle domain is parameterized by size; the chain, retry and
trap micro-domains exist to exercise specific planner behaviors at desk
scale (deterministic search, geometric retry costs, and the value of a
nonzero exception bound when the determinized plan walks into a dead end).
"""

from __future__ import annotations

TRIANGLE_DOMAIN = """\
(define (domain triangle-tire)
  (:requirements :strips :typing :equality :negative-preconditions :probabilistic-effects)
  (:types location)
  (:predicates (vehicle-at ?loc - location)
               (spare-in ?loc - location)
               (road ?from - location ?to - location)
               (not-flattire)
               (hasspare))
  (:action move-car
    :parameters (?from - location ?to - location)
    :precondition (and (vehicle-at ?from) (road ?from ?to) (not-flattire))
    :effect (and (vehicle-at ?to) (not (vehicle-at ?from))
                 (probabilistic 0.5 (not (not-flattire)))))
  (:action loadtire
    :parameters (?loc - location)
    :precondition (and (vehicle-at ?loc) (spare-in ?loc)
                       (not (not-flattire)))
    :effect (and (hasspare) (not (spare-in ?loc))))
  (:action changetire
    :parameters ()
    :precondition (hasspare)
    :effect (and (not (hasspare)) (not-flattire))))
"""


def gen_triangle_tireworld(n: int) -> tuple[str, str]:
    """Size-n triangular instance.

    Locations l-r-c form a triangle with rows r = 1..2n+1 (row r has
    2n+2-r cells). The vehicle starts at l-1-1 and must reach the far
    vertex l-1-(2n+1). Roads: forward along the bottom row (the short
    direct route, no spares), up the left edge, and diagonally down-right
    from every non-bottom cell. Spares sit exactly on the outer route
    (left edge and right edge), so there is a single all-spares path: up
    the left edge and down the right edge. Spares can only be loaded with
    a flat tire, so repairs happen where the flat occurred and the
    always-flat determinization reproduces the optimal policy exactly.
    """
    if n < 1:
        raise ValueError("triangle size must be >= 1")
    side = 2 * n + 1
    locations = [f"l-{r}-{c}" for r in range(1, side + 1)
                 for c in range(1, side + 2 - r)]
    roads = []
    for c in range(1, side):
        roads.append((f"l-1-{c}", f"l-1-{c + 1}"))
    for r in range(1, side):
        roads.append((f"l-{r}-1", f"l-{r + 1}-1"))
    for r in range(2, side + 1):
        for c in range(1, side + 2 - r):
            roads.append((f"l-{r}-{c}", f"l-{r - 1}-{c + 1}"))
    spares = [f"l-{r}-1" for r in range(2, side + 1)]
    spares += [f"l-{r}-{side + 1 - r}" for r in range(1, side)]

    init = ["(vehicle-at l-1-1)", "(not-flattire)"]
    init += [f"(road {a} {b})" for a, b in roads]
    init += [f"(spare-in {loc})" for loc in sorted(set(spares))]
    problem = "\n".join([
        f"(define (problem triangle-tire-{n})",
        "  (:domain triangle-tire)",
        "  (:objects " + " ".join(locations) + " - location)",
        "  (:init " + "\n         ".join(init) + ")",
        f"  (:goal (vehicle-at l-1-{side})))",
    ]) + "\n"
    return TRIANGLE_DOMAIN, problem


CHAIN_DOMAIN = """\
(define (domain chain)
  (:requirements :strips :typing)
  (:types pos)
  (:predicates (at ?p - pos) (next ?a - pos ?b - pos))
  (:action step
    :parameters (?a - pos ?b - pos)
    :precondition (and (at ?a) (next ?a ?b))
    :effect (and (at ?b) (not (at ?a)))))
"""


def gen_chain(length: int = 2) -> tuple[str, str]:
    """Deterministic corridor of ``length`` unit-cost steps."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    cells = [f"p{i}" for i in range(length + 1)]
    init = ["(at p0)"] + [f"(next p{i} p{i + 1})" for i in range(length)]
    problem = "\n".join([
        f"(define (problem chain-{length})",
        "  (:domain chain)",
        "  (:objects " + " ".join(cells) + " - pos)",
        "  (:init " + " ".join(init) + ")",
        f"  (:goal (at p{length})))",
    ]) + "\n"
    return CHAIN_DOMAIN, problem


RETRY_DOMAIN = """\
(define (domain retry)
  (:requirements :strips :probabilistic-effects)
  (:predicates (done))
  (:action attempt
    :parameters ()
    :precondition (and)
    :effect (probabilistic 0.5 (done))))
"""

RETRY_PROBLEM = """\
(define (problem retry-once)
  (:domain retry)
  (:init)
  (:goal (done)))
"""


def gen_retry() -> tuple[str, str]:
    """Single action that succeeds with probability 0.5; expected cost 2."""
    return RETRY_DOMAIN, RETRY_PROBLEM


TRAP_DOMAIN = """\
(define (domain trap)
  (:requirements :strips :typing :probabilistic-effects)
  (:types cell)
  (:predicates (at ?c - cell)
               (risky ?from - cell ?to - cell)
               (walkway ?from - cell ?to - cell)
               (pit ?p - cell))
  (:action leap
    :parameters (?from - cell ?to - cell ?p - cell)
    :precondition (and (at ?from) (risky ?from ?to) (pit ?p))
    :effect (and (not (at ?from))
                 (probabilistic 0.7 (at ?to) 0.3 (at ?p))))
  (:action walk
    :parameters (?from - cell ?to - cell)
    :precondition (and (at ?from) (walkway ?from ?to))
    :effect (and (at ?to) (not (at ?from)))))
"""


def gen_trap(walk_length: int = 10) -> tuple[str, str]:
    """Shortcut of three risky leaps vs. a long safe walkway.

    Each leap reaches the next ledge with probability 0.7 and otherwise
    drops into a pit with no exits. The most-likely-outcome determinization
    makes the leaps look safe, so a zero-exception plan takes them and
    succeeds only 0.7^3 of the time; one planned-for exception makes the
    pit's cost visible and routes the policy along the walkway.
    """
    if walk_length < 4:
        raise ValueError("walkway must be longer than the leap route")
    cells = ["start", "ledge1", "ledge2", "goal", "pit"]
    cells += [f"w{i}" for i in range(1, walk_length)]
    risky = [("start", "ledge1"), ("ledge1", "ledge2"), ("ledge2", "goal")]
    walk_cells = ["start"] + [f"w{i}" for i in range(1, walk_length)] + ["goal"]
    walkway = list(zip(walk_cells, walk_cells[1:]))
    init = ["(at start)", "(pit pit)"]
    init += [f"(risky {a} {b})" for a, b in risky]
    init += [f"(walkway {a} {b})" for a, b in walkway]
    problem = "\n".join([
        f"(define (problem trap-{walk_length})",
        "  (:domain trap)",
        "  (:objects " + " ".join(cells) + " - cell)",
        "  (:init " + "\n         ".join(init) + ")",
        "  (:goal (at goal)))",
    ]) + "\n"
    return TRAP_DOMAIN, problem


# kind -> (generator, argparse dest of the `sspkit gen` option that sets
# its size, or None)
GENERATORS = {
    "triangle": (gen_triangle_tireworld, "n"),
    "chain": (gen_chain, "length"),
    "retry": (gen_retry, None),
    "trap": (gen_trap, "walk_length"),
}
