"""Built-in classical planner and relaxed-plan heuristic.

The default search is greedy best-first on the relaxed-plan heuristic,
expanding helpful-action successors first; if that phase exhausts without
finding a plan, a uniform-cost restart guarantees completeness within the
remaining budget. ``mode="optimal"`` skips the greedy phase and returns
minimal-cost plans (used by tests and the oracle suite).
"""

from __future__ import annotations

import heapq
import math
import re
import subprocess
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ExternalPlannerError
from .model import ApplicabilityIndex, State, iter_bits

INF = math.inf


@dataclass(frozen=True)
class DetAction:
    id: int
    name: str
    pre_pos_mask: int
    pre_neg_mask: int
    add_mask: int
    del_mask: int
    cost: float


@dataclass
class DeterministicProblem:
    """A classical planning problem over the grounded atom universe.

    ``static_mask`` holds the atoms true in every state searched, and
    ``init_bits`` an initial state; both only steer the applicability
    index's key choice and the heuristic's stripping of static atoms.
    """

    atom_names: tuple[str, ...]
    actions: list[DetAction]
    goal_mask: int
    static_mask: int = 0
    init_bits: int = 0
    actions_by_id: dict[int, DetAction] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        self.actions_by_id = {a.id: a for a in self.actions}

    def is_goal(self, bits: int) -> bool:
        return bits & self.goal_mask == self.goal_mask

    @cached_property
    def applicability(self) -> ApplicabilityIndex:
        return ApplicabilityIndex(self.actions, self.atom_names,
                                  self.static_mask, self.init_bits)

    def applicable(self, bits: int) -> list[DetAction]:
        return self.applicability.applicable(bits)

    def apply(self, bits: int, action: DetAction) -> int:
        return (bits & ~action.del_mask) | action.add_mask

    @cached_property
    def relaxed_task(self) -> "RelaxedTask":
        """Delete relaxation of this task, built on first use."""
        entries = [(a.id, a.cost, a.pre_pos_mask, a.add_mask)
                   for a in self.actions if a.add_mask]
        return RelaxedTask(len(self.atom_names), entries, self.goal_mask,
                           self.static_mask)


@dataclass
class PlanResult:
    """Outcome of one deterministic solve.

    ``steps`` pairs each visited state with the action taken from it;
    ``suffix_costs[i]`` is the remaining plan cost from ``steps[i]`` on.
    Status ``timeout`` (budget exhausted) is distinct from ``failure``
    (search space exhausted, goal provably unreachable).
    """

    status: str  # plan | failure | timeout
    steps: list[tuple[State, int]]
    suffix_costs: list[float]
    expansions: int = 0

    @property
    def found(self) -> bool:
        return self.status == "plan"

    @property
    def cost(self) -> float:
        return self.suffix_costs[0] if self.suffix_costs else 0.0

    def __len__(self) -> int:
        return len(self.steps)


class RelaxedTask:
    """Delete relaxation of a deterministic task (or of a probabilistic one
    with every outcome treated as a separate action).

    The relaxed planning graph is built counter-driven (Bonet & Geffner
    2001; Hoffmann & Nebel 2001). Once per task, every entry gets its
    precondition count and every atom the list of entries it is a
    precondition of. Each evaluation copies the counts and reaches atoms
    layer by layer: reaching an atom decrements the counts of its
    dependants, and an entry whose count hits zero enters at the layer of
    that atom, so an entry is touched once per precondition instead of
    once per layer. Construction stops when the goal holds (then a relaxed
    plan is extracted) or a layer adds no atom (then the estimate is inf).

    The extraction takes the subgoals of each layer in sorted order, and
    as the achiever of an atom at layer ``lvl`` the lowest entry index
    among ``achievers[atom]`` that entered at layer ``lvl - 1``. The
    returned helpful actions steer the greedy sub-planner, so this
    tie-break is what keeps its plans, and every output, byte-identical.

    Evaluations are cached per state bitset; negative preconditions are
    ignored, which keeps an infinite estimate sound for real unreachability.

    The atoms of ``static_mask`` are left out of every precondition list
    and out of the first layer. Such an atom holds at layer 0 and is never
    a subgoal, so stripping it leaves ``(h, helpful)`` unchanged, but only
    on states in which every static atom holds. The static atoms of a
    grounded problem (``GroundedProblem.static_mask``) hold in every state
    reachable from ``:init``.
    """

    def __init__(self, n_atoms: int,
                 entries: list[tuple[int, float, int, int]],
                 goal_mask: int, static_mask: int = 0):
        self.n_atoms = n_atoms
        self.goal_mask = goal_mask
        self.goal_atoms = tuple(iter_bits(goal_mask))
        self.static_mask = static_mask
        self.entries = entries  # (orig id, cost, pre_pos_mask, add_mask)
        self.adds = [add for _, _, _, add in entries]
        self.pre_atoms = [tuple(iter_bits(pre & ~static_mask))
                          for _, _, pre, _ in entries]
        self.pre_count = [len(pres) for pres in self.pre_atoms]
        self.unconditional = [ei for ei, n in enumerate(self.pre_count)
                              if not n]
        self.dependants: list[list[int]] = [[] for _ in range(n_atoms)]
        self.achievers: list[list[int]] = [[] for _ in range(n_atoms)]
        for ei, pres in enumerate(self.pre_atoms):
            for atom in pres:
                self.dependants[atom].append(ei)
            for atom in iter_bits(self.adds[ei]):
                self.achievers[atom].append(ei)
        self._cache: dict[int, tuple[float, frozenset[int]]] = {}

    def evaluate(self, bits: int) -> tuple[float, frozenset[int]]:
        """Relaxed-plan cost from ``bits`` and the helpful action ids.

        Returns (0, {}) when the goal already holds, (inf, {}) when it is
        unreachable even ignoring deletes.
        """
        hit = self._cache.get(bits)
        if hit is not None:
            return hit
        result = self._compute(bits)
        self._cache[bits] = result
        return result

    def _compute(self, bits: int) -> tuple[float, frozenset[int]]:
        goal_mask = self.goal_mask
        if bits & goal_mask == goal_mask:
            return 0.0, frozenset()
        adds = self.adds
        dependants = self.dependants
        count = self.pre_count[:]
        level_of = [-1] * self.n_atoms
        entry_level = [-1] * len(adds)
        new_bits = bits
        for ei in self.unconditional:
            entry_level[ei] = 0
            new_bits |= adds[ei]
        reached = bits
        fresh = bits & ~self.static_mask  # the atoms first reached at ``level``
        level = 0
        while True:
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                atom = low.bit_length() - 1
                level_of[atom] = level
                for ei in dependants[atom]:
                    left = count[ei] - 1
                    count[ei] = left
                    if not left:
                        entry_level[ei] = level
                        new_bits |= adds[ei]
            if new_bits == reached:
                return INF, frozenset()
            fresh = new_bits & ~reached
            reached = new_bits
            level += 1
            if reached & goal_mask == goal_mask:
                break
        for atom in iter_bits(fresh):
            level_of[atom] = level

        max_level = max(level_of[a] for a in self.goal_atoms)
        subgoals: list[set[int]] = [set() for _ in range(max_level + 1)]
        for atom in self.goal_atoms:
            lvl = level_of[atom]
            if lvl > 0:
                subgoals[lvl].add(atom)
        cost = 0.0
        selected: set[tuple[int, int]] = set()
        helpful: set[int] = set()
        for lvl in range(max_level, 0, -1):
            for atom in sorted(subgoals[lvl]):
                achiever = None
                for ei in self.achievers[atom]:
                    if entry_level[ei] == lvl - 1:
                        achiever = ei
                        break
                if achiever is None:  # achieved earlier than marked; skip
                    continue
                if (achiever, lvl - 1) in selected:
                    continue
                selected.add((achiever, lvl - 1))
                orig_id, act_cost, _, _ = self.entries[achiever]
                cost += act_cost
                if lvl - 1 == 0:
                    helpful.add(orig_id)
                for pre_atom in self.pre_atoms[achiever]:
                    pl = level_of[pre_atom]
                    if pl > 0:
                        subgoals[pl].add(pre_atom)
        return cost, frozenset(helpful)


def _plan(d: DeterministicProblem, chain: list[tuple[int, int]],
          expansions: int = 0) -> PlanResult:
    """The plan whose steps are ``chain``'s (state bits, action id) pairs."""
    suffix_costs = []
    total = 0.0
    for _, action_id in reversed(chain):
        total += d.actions_by_id[action_id].cost
        suffix_costs.append(total)
    suffix_costs.reverse()
    return PlanResult("plan", [(State(b), a) for b, a in chain], suffix_costs,
                      expansions)


def _reconstruct(d: DeterministicProblem, parents: dict, goal_bits: int,
                 expansions: int) -> PlanResult:
    chain: list[tuple[int, int]] = []
    bits = goal_bits
    while parents[bits] is not None:
        chain.append(parents[bits])
        bits = parents[bits][0]
    return _plan(d, chain[::-1], expansions)


def solve_deterministic(d: DeterministicProblem, s: State, *,
                        budget: int = 100_000,
                        mode: str = "greedy") -> PlanResult:
    """Find a plan from ``s`` to the goal, or prove there is none.

    Plans from the default mode are valid but not necessarily optimal;
    ``mode="optimal"`` runs plain uniform-cost search.
    """
    bits0 = s.bits
    if d.is_goal(bits0):
        return PlanResult("plan", [], [])
    expansions = 0

    if mode == "greedy":
        task = d.relaxed_task
        h0, _ = task.evaluate(bits0)
        if h0 == INF:
            return PlanResult("failure", [], [], expansions)
        counter = 0
        open_heap: list[tuple[float, int, int]] = [(h0, counter, bits0)]
        parents: dict[int, tuple[int, int] | None] = {bits0: None}
        closed: set[int] = set()
        while open_heap:
            _, _, bits = heapq.heappop(open_heap)
            if bits in closed:
                continue
            closed.add(bits)
            if d.is_goal(bits):
                return _reconstruct(d, parents, bits, expansions)
            expansions += 1
            if expansions >= budget:
                return PlanResult("timeout", [], [], expansions)
            _, helpful = task.evaluate(bits)
            apps = d.applicable(bits)
            use = [a for a in apps if a.id in helpful] or apps
            for a in use:
                nb = d.apply(bits, a)
                if nb in parents:
                    continue
                hn, _ = task.evaluate(nb)
                if hn == INF:
                    continue
                parents[nb] = (bits, a.id)
                counter += 1
                heapq.heappush(open_heap, (hn, counter, nb))
        # Greedy phase exhausted under helpful-action pruning: restart as
        # uniform-cost search to preserve completeness.
    elif mode != "optimal":
        raise ValueError(f"unknown mode {mode!r}")

    counter = 0
    open_heap = [(0.0, counter, bits0)]
    parents = {bits0: None}
    best_g: dict[int, float] = {bits0: 0.0}
    closed = set()
    while open_heap:
        g, _, bits = heapq.heappop(open_heap)
        if bits in closed:
            continue
        closed.add(bits)
        if d.is_goal(bits):
            return _reconstruct(d, parents, bits, expansions)
        expansions += 1
        if expansions >= budget:
            return PlanResult("timeout", [], [], expansions)
        for a in d.applicable(bits):
            nb = d.apply(bits, a)
            if nb in closed:
                continue
            ng = g + a.cost
            if nb in best_g and best_g[nb] <= ng:
                continue
            best_g[nb] = ng
            parents[nb] = (bits, a.id)
            counter += 1
            heapq.heappush(open_heap, (ng, counter, nb))
    return PlanResult("failure", [], [], expansions)


# ── external planner hook (off by default) ───────────────────────────────────
#
# Plan-text format: one action per line, parenthesized sanitized name, e.g.
# "(move-car__l-1-1__l-2-1)"; ';' starts a comment. Exit status 0 means a
# plan follows on stdout, 10 means the planner proved unsolvability.

_SANITIZE_RE = re.compile(r"[^a-z0-9_\-]")


def sanitize_action_name(name: str) -> str:
    inner = name.strip("()").strip()
    return _SANITIZE_RE.sub("", inner.replace(" ", "__"))


def det_to_pddl(d: DeterministicProblem, initial_bits: int,
                name: str = "task") -> tuple[str, str]:
    """Render a deterministic problem as ground classical PDDL."""
    preds: dict[str, int] = {}
    objects: set[str] = set()
    for atom in d.atom_names:
        parts = atom.strip("()").split()
        preds[parts[0]] = max(preds.get(parts[0], 0), len(parts) - 1)
        objects.update(parts[1:])
    pred_decls = []
    for pname in sorted(preds):
        params = " ".join(f"?x{i} - object" for i in range(preds[pname]))
        pred_decls.append(f"({pname} {params})" if params else f"({pname})")

    lines = [f"(define (domain {name}-domain)",
             "  (:requirements :strips :negative-preconditions)",
             "  (:predicates " + " ".join(pred_decls) + ")"]
    for a in d.actions:
        pre = [d.atom_names[i] for i in iter_bits(a.pre_pos_mask)]
        pre += [f"(not {d.atom_names[i]})" for i in iter_bits(a.pre_neg_mask)]
        eff = [d.atom_names[i] for i in iter_bits(a.add_mask)]
        eff += [f"(not {d.atom_names[i]})" for i in iter_bits(a.del_mask)]
        lines.append(f"  (:action {sanitize_action_name(a.name)}")
        lines.append("    :parameters ()")
        lines.append("    :precondition (and " + " ".join(pre) + ")")
        lines.append("    :effect (and " + " ".join(eff) + "))")
    lines.append(")")
    domain_text = "\n".join(lines) + "\n"

    init = [d.atom_names[i] for i in iter_bits(initial_bits)]
    goal = [d.atom_names[i] for i in iter_bits(d.goal_mask)]
    problem_text = "\n".join([
        f"(define (problem {name})",
        f"  (:domain {name}-domain)",
        "  (:objects " + " ".join(sorted(objects)) + " - object)" if objects
        else "  (:objects)",
        "  (:init " + " ".join(init) + ")",
        "  (:goal (and " + " ".join(goal) + "))",
        ")"]) + "\n"
    return domain_text, problem_text


def parse_plan_text(text: str) -> list[str]:
    names = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip().lower()
        if not line:
            continue
        names.append(sanitize_action_name(line))
    return names


def solve_with_external(d: DeterministicProblem, s: State,
                        command: list[str]) -> PlanResult:
    """Shell out to an external classical planner.

    The command is invoked as ``command + [domain.pddl, problem.pddl]`` and
    must follow the plan-text format described above. The returned plan is
    validated by replay before being accepted.
    """
    domain_text, problem_text = det_to_pddl(d, s.bits)
    with tempfile.TemporaryDirectory(prefix="sspkit-ext-") as tmp:
        domain_path = Path(tmp) / "domain.pddl"
        problem_path = Path(tmp) / "problem.pddl"
        domain_path.write_text(domain_text)
        problem_path.write_text(problem_text)
        proc = subprocess.run(command + [str(domain_path), str(problem_path)],
                              capture_output=True, text=True)
    if proc.returncode == 10:
        return PlanResult("failure", [], [])
    if proc.returncode != 0:
        raise ExternalPlannerError(
            f"external planner exited with {proc.returncode}: "
            f"{proc.stderr.strip()[:200]}")
    by_sanitized = {sanitize_action_name(a.name): a for a in d.actions}
    bits = s.bits
    chain: list[tuple[int, int]] = []
    for token in parse_plan_text(proc.stdout):
        a = by_sanitized.get(token)
        if a is None:
            raise ExternalPlannerError(f"unknown action {token!r} in plan")
        if bits & a.pre_pos_mask != a.pre_pos_mask or bits & a.pre_neg_mask:
            raise ExternalPlannerError(f"inapplicable action {token!r} in plan")
        chain.append((bits, a.id))
        bits = d.apply(bits, a)
    if not d.is_goal(bits):
        raise ExternalPlannerError("external plan does not reach the goal")
    return _plan(d, chain)
