"""Built-in classical planner and relaxed-plan heuristic.

A deterministic problem is a ``GroundedProblem`` with one outcome per
action, such as a reduced model's ``det_problem``. Its actions keep their
ids from the base problem, so a plan names actions by id, not position.

Every action costs 1, so a plan costs its length. The default search is
greedy best-first on the relaxed-plan heuristic, expanding helpful-action
successors first; if that phase exhausts without finding a plan, a
breadth-first restart guarantees completeness within the remaining budget.
``mode="optimal"`` skips the greedy phase and returns shortest plans (used
by ``detplan solve --optimal`` and by the tests' ``exact_solver`` fixture).
"""

from __future__ import annotations

import heapq
import math
import subprocess
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ExternalPlannerError
from .model import is_goal, iter_bits, predicate_of

if TYPE_CHECKING:
    from .grounding import GroundedProblem

INF = math.inf
DEFAULT_EXPANSION_BUDGET = 100_000  # per solve_deterministic call


@dataclass
class PlanResult:
    """Outcome of one deterministic solve.

    ``steps`` pairs each visited state, as its ``int`` bitset, with the id
    of the action taken from it; ``cost`` is the plan's length, as a float.
    Status ``timeout`` (budget exhausted) is distinct from ``failure``
    (search space exhausted, goal provably unreachable).
    """

    status: str  # plan | failure | timeout
    steps: list[tuple[int, int]]
    expansions: int = 0

    cost = property(lambda self: float(len(self.steps)))

    @property
    def found(self) -> bool:
        return self.status == "plan"


class RelaxedTask:
    """Delete relaxation of a deterministic task (or of a probabilistic one
    with every outcome treated as a separate action).

    The relaxed planning graph (Hoffmann & Nebel 2001) is built on integer
    bitsets over entries. Let ``k`` be 2 or, if larger, the most
    preconditions an entry has. ``k - 1`` thermometer bitsets count the
    preconditions reached: ``held[i]`` holds the entries with at least
    ``i + 1`` of them, and an entry with ``n`` preconditions starts as if
    ``k - n`` were reached already. Reaching an atom fires its dependants
    in ``held[k - 2]`` and moves the others up one row, so an entry enters
    at the layer of its last precondition after a few bitset operations
    per atom, whatever the number of dependants. Construction stops when
    the goal holds (then a relaxed plan is extracted, and the estimate
    ``h`` is the number of achievers it selects) or a layer adds no atom
    (then ``h`` is inf).

    Layer 0 is not reached atom by atom. The precondition atoms are grouped
    by predicate, and the group with the most atoms true in ``init_bits``
    (on ties the last in atom order) comes last: in the triangle domains it
    is ``(spare-in …)``, whose atoms vary most from state to state. A
    thermometer of some atoms has a ``k``-th row for the entries they
    complete, and two thermometers add row by row. Layer 0 is the presets
    (where an entry without preconditions fills all ``k`` rows) plus the
    thermometer of the state's atoms in the other groups, that sum
    memoized under those atoms, plus the memoized thermometer of its atoms
    in the last group. Counts add over any partition of the atoms, so
    ``init_bits`` decides only how often the memos hit, never a result.

    The extraction walks the layers down with one bitset of the atoms
    wanted so far: the goal and the preconditions of the achievers chosen.
    The subgoals of a layer are the wanted atoms first reached there,
    popped lowest first; the achiever of an atom at layer ``lvl`` is the
    lowest entry index among ``achievers[atom]`` that entered at layer
    ``lvl - 1``. The helpful actions, returned as a bitmask over action
    ids, steer the greedy sub-planner, so this tie-break is what keeps its
    plans, and every output, byte-identical.

    Evaluations are cached per state bitset; negative preconditions are
    ignored, which keeps an infinite estimate sound for real unreachability.
    """

    def __init__(self, atom_names: tuple[str, ...],
                 entries: list[tuple[int, int, int]],
                 goal_mask: int, init_bits: int):
        self.atom_names = atom_names
        self.goal_mask = goal_mask
        self.entries = entries  # (orig id, pre_pos_mask, add_mask)
        self.adds = [add for _, _, add in entries]
        self.pre_masks = [pre for _, pre, _ in entries]
        self.k = k = max(2, max((pre.bit_count() for pre in self.pre_masks),
                                default=0))
        n_atoms = len(atom_names)
        # per atom: the entries it is a precondition of, the atoms those
        # entries add, and the entries that add it
        self.dependants = [0] * n_atoms
        self.dependant_adds = [0] * n_atoms
        self.achievers = [0] * n_atoms
        preset = [0] * k
        for ei, pre in enumerate(self.pre_masks):
            bit = 1 << ei
            for atom in iter_bits(pre):
                self.dependants[atom] |= bit
                self.dependant_adds[atom] |= self.adds[ei]
            for atom in iter_bits(self.adds[ei]):
                self.achievers[atom] |= bit
            for i in range(k - pre.bit_count()):
                preset[i] |= bit
        self.preset = preset
        groups: dict[str, int] = {}
        for atom, entry_bits in enumerate(self.dependants):
            if entry_bits:
                name = predicate_of(atom_names[atom])
                groups[name] = groups.get(name, 0) | 1 << atom
        masks = sorted(groups.values(),
                       key=lambda mask: (mask & init_bits).bit_count())
        self.last_mask = masks.pop() if masks else 0
        self.prefix_mask = sum(masks)
        self._prefix_rows: dict[int, list[int]] = {}
        self._last_rows: dict[int, list[int]] = {}
        self._cache: dict[int, tuple[float, int]] = {}

    def evaluate(self, bits: int) -> tuple[float, int]:
        """Relaxed-plan length from ``bits`` and the helpful actions, as a
        bitmask with bit ``id`` set for each helpful action id.

        Returns (0, 0) when the goal already holds, (inf, 0) when it is
        unreachable even ignoring deletes.
        """
        hit = self._cache.get(bits)
        if hit is not None:
            return hit
        result = self._compute(bits)
        self._cache[bits] = result
        return result

    def _thermometer(self, key: int) -> list[int]:
        """Row ``i`` holds the entries with at least ``i + 1`` preconditions
        among the atoms of ``key``."""
        rows = [0] * self.k
        while key:
            low = key & -key
            key ^= low
            dep = self.dependants[low.bit_length() - 1]
            if rows[0] & dep:
                for i in range(self.k - 1, 0, -1):
                    rows[i] |= rows[i - 1] & dep
            rows[0] |= dep
        return rows

    def _compute(self, bits: int) -> tuple[float, int]:
        goal_mask = self.goal_mask
        if bits & goal_mask == goal_mask:
            return 0.0, 0
        prefix = bits & self.prefix_mask
        rows = self._prefix_rows.get(prefix)
        if rows is None:
            rows = self._prefix_rows[prefix] = _thermometer_sum(
                self.preset, self._thermometer(prefix))
        key = bits & self.last_mask
        if key:
            part = self._last_rows.get(key)
            if part is None:
                part = self._last_rows[key] = self._thermometer(key)
            rows = _thermometer_sum(rows, part)
        # unpacking copies, so the memoized rows stay as they are
        *held, fired = rows
        adds = self.adds
        new_bits = bits
        now = fired
        while now:
            low = now & -now
            now ^= low
            new_bits |= adds[low.bit_length() - 1]

        dependants = self.dependants
        dependant_adds = self.dependant_adds
        top = len(held) - 1
        shifts = range(top, 0, -1)
        fired_at = [fired]  # the entries that entered at each layer
        fresh_at = [bits]  # the atoms first reached at each layer
        reached = bits
        while True:
            if new_bits == reached:
                return INF, 0
            fresh = new_bits & ~reached
            fresh_at.append(fresh)
            reached = new_bits
            if reached & goal_mask == goal_mask:
                break
            fired = 0
            while fresh:
                low = fresh & -fresh
                fresh ^= low
                atom = low.bit_length() - 1
                dep = dependants[atom]
                now = held[top] & dep
                for i in shifts:
                    held[i] |= held[i - 1] & dep
                held[0] |= dep
                if now:
                    fired |= now
                    if now == dep:
                        new_bits |= dependant_adds[atom]
                    else:
                        while now:
                            low = now & -now
                            now ^= low
                            new_bits |= adds[low.bit_length() - 1]
            fired_at.append(fired)

        # an achiever's preconditions lie on lower layers than the atom it
        # achieves, so no layer gains a subgoal once it has been walked
        achievers = self.achievers
        entries = self.entries
        pre_masks = self.pre_masks
        wanted_anywhere = goal_mask
        selected = 0
        helpful = 0
        for lvl in range(len(fired_at), 0, -1):
            entered = fired_at[lvl - 1]
            wanted = wanted_anywhere & fresh_at[lvl]
            while wanted:
                low = wanted & -wanted
                wanted ^= low
                options = achievers[low.bit_length() - 1] & entered
                achiever = options & -options
                if achiever & selected:
                    continue
                selected |= achiever
                ei = achiever.bit_length() - 1
                if lvl == 1:
                    helpful |= 1 << entries[ei][0]
                wanted_anywhere |= pre_masks[ei]
        return float(selected.bit_count()), helpful


def _thermometer_sum(a: list[int], b: list[int]) -> list[int]:
    """Row ``j`` of the sum holds the entries whose counts in ``a`` and
    ``b`` add up to at least ``j + 1``; row ``i`` of each holds the entries
    counted at least ``i + 1`` times there."""
    total = []
    for j in range(len(a)):
        row = a[j] | b[j]
        for i in range(j):
            row |= a[i] & b[j - 1 - i]
        total.append(row)
    return total


def _reconstruct(parents: dict, goal_bits: int, expansions: int) -> PlanResult:
    steps: list[tuple[int, int]] = []
    bits = goal_bits
    while parents[bits] is not None:
        steps.append(parents[bits])
        bits = parents[bits][0]
    return PlanResult("plan", steps[::-1], expansions)


def solve_deterministic(d: GroundedProblem, bits0: int, *,
                        budget: int = DEFAULT_EXPANSION_BUDGET,
                        mode: str = "greedy") -> PlanResult:
    """Find a plan from the state ``bits0`` to the goal of ``d``, a problem
    with one outcome per action, or prove there is none; ``budget`` bounds
    the expansions. The plan's steps name actions by ``id``.

    Plans from the default mode are valid but not necessarily shortest;
    ``mode="optimal"`` runs plain breadth-first search.

    Neither phase keeps a closed set: each queues a state only when it
    enters ``parents``, so no state is expanded twice.
    """
    if is_goal(bits0, d):
        return PlanResult("plan", [])
    applicable = d.applicability.applicable
    expansions = 0

    if mode == "greedy":
        task = d.relaxed_task
        h0, _ = task.evaluate(bits0)
        if h0 == INF:
            return PlanResult("failure", [], expansions)
        counter = 0
        open_heap: list[tuple[float, int, int]] = [(h0, counter, bits0)]
        parents: dict[int, tuple[int, int] | None] = {bits0: None}
        while open_heap:
            _, _, bits = heapq.heappop(open_heap)
            if is_goal(bits, d):
                return _reconstruct(parents, bits, expansions)
            expansions += 1
            if expansions >= budget:
                return PlanResult("timeout", [], expansions)
            _, helpful = task.evaluate(bits)
            apps = applicable(bits)
            use = [a for a in apps if helpful >> a.id & 1] or apps
            for a in use:
                o = a.outcomes[0]
                nb = (bits & ~o.del_mask) | o.add_mask
                if nb in parents:
                    continue
                hn, _ = task.evaluate(nb)
                if hn == INF:
                    continue
                parents[nb] = (bits, a.id)
                counter += 1
                heapq.heappush(open_heap, (hn, counter, nb))
        # Greedy phase exhausted under helpful-action pruning: restart as
        # breadth-first search to preserve completeness.
    elif mode != "optimal":
        raise ValueError(f"unknown mode {mode!r}")

    queue = deque([bits0])
    parents = {bits0: None}
    while queue:
        bits = queue.popleft()
        if is_goal(bits, d):
            return _reconstruct(parents, bits, expansions)
        expansions += 1
        if expansions >= budget:
            return PlanResult("timeout", [], expansions)
        for a in applicable(bits):
            o = a.outcomes[0]
            nb = (bits & ~o.del_mask) | o.add_mask
            if nb not in parents:
                parents[nb] = (bits, a.id)
                queue.append(nb)
    return PlanResult("failure", [], expansions)


# ── external planner hook (off by default) ───────────────────────────────────
#
# The task is written propositionally: atom ``i`` of ``atoms`` is the
# nullary predicate ``(p<i>)`` and the ``j``-th action of ``actions`` is the
# parameterless ``(a<j>)``, so every name is valid PDDL and unique. The plan
# text names one action per line, e.g. "(a3)", in any case; ';' starts a
# comment. Exit status 0 means a plan follows on stdout, 10 means the
# planner proved unsolvability.


def det_to_pddl(d: GroundedProblem, initial_bits: int) -> tuple[str, str]:
    """Write a problem with one outcome per action as STRIPS domain and
    problem texts, straight from its bitsets."""

    def atoms(mask: int, form: str = "(p{})") -> list[str]:
        return [form.format(i) for i in iter_bits(mask)]

    def conj(parts: list[str]) -> str:
        if len(parts) == 1:
            return parts[0]
        return "(and" + "".join(" " + part for part in parts) + ")"

    lines = ["(define (domain task-domain)",
             "  (:requirements :strips :negative-preconditions)"]
    predicates = atoms((1 << len(d.atoms)) - 1)
    if predicates:
        lines.append("  (:predicates " + " ".join(predicates) + ")")
    for j, a in enumerate(d.actions):
        o = a.outcomes[0]
        pre = atoms(a.pre_pos_mask) + atoms(a.pre_neg_mask, "(not (p{}))")
        eff = atoms(o.add_mask) + atoms(o.del_mask, "(not (p{}))")
        lines += [f"  (:action a{j}", "    :parameters ()",
                  "    :precondition " + conj(pre),
                  "    :effect " + conj(eff) + ")"]
    problem = ["(define (problem task)", "  (:domain task-domain)",
               "  (:init " + " ".join(atoms(initial_bits)) + ")",
               "  (:goal " + conj(atoms(d.goal_mask)) + ")"]
    return "\n".join(lines + [")", ""]), "\n".join(problem + [")", ""])


def solve_with_external(d: GroundedProblem, bits: int,
                        command: list[str]) -> PlanResult:
    """Shell out to an external classical planner on ``d``, a problem with
    one outcome per action.

    The command is invoked as ``command + [domain.pddl, problem.pddl]`` and
    must follow the plan-text format described above. The returned plan is
    validated by replay from the state ``bits`` before being accepted.
    """
    domain_text, problem_text = det_to_pddl(d, bits)
    with tempfile.TemporaryDirectory(prefix="sspkit-ext-") as tmp:
        domain_path = Path(tmp) / "domain.pddl"
        problem_path = Path(tmp) / "problem.pddl"
        domain_path.write_text(domain_text, encoding="utf-8")
        problem_path.write_text(problem_text, encoding="utf-8")
        proc = subprocess.run(command + [str(domain_path), str(problem_path)],
                              capture_output=True)
    if proc.returncode == 10:
        return PlanResult("failure", [])
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", "replace")
        raise ExternalPlannerError(
            f"external planner exited with {proc.returncode}: "
            f"{stderr.strip()[:200]}")
    try:
        stdout = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExternalPlannerError(
            f"external planner output is not UTF-8 at byte {exc.start}") from None
    by_name = {f"a{j}": a for j, a in enumerate(d.actions)}
    steps: list[tuple[int, int]] = []
    for line in stdout.splitlines():
        token = line.split(";", 1)[0].strip().strip("()").strip().lower()
        if not token:
            continue
        a = by_name.get(token)
        if a is None:
            raise ExternalPlannerError(f"unknown action {token!r} in plan")
        if bits & a.pre_pos_mask != a.pre_pos_mask or bits & a.pre_neg_mask:
            raise ExternalPlannerError(
                f"inapplicable action {token!r} ({a.name}) in plan")
        steps.append((bits, a.id))
        o = a.outcomes[0]
        bits = (bits & ~o.del_mask) | o.add_mask
    if not is_goal(bits, d):
        raise ExternalPlannerError("external plan does not reach the goal")
    return PlanResult("plan", steps)
