"""Grounding: instantiate action schemas over typed objects.

Bindings come from a depth-first join of each schema's parameters with the
static facts of ``:init`` (atoms of predicates no outcome adds); only they
are instantiated, filtered by equality constraints and pruned with a
delete-relaxation reachability check. ``BINDING_CAP`` bounds the bindings
the join visits, partial ones included; ``OUTCOME_CAP`` bounds the joint
outcomes of the ground actions kept, counted from their clauses before
any is built.
Outcome distributions are exact rationals and sum to 1 per ground action,
as each clause's do (a clause's residual no-op is one of its outcomes).
Every action costs 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

from .detplan import RelaxedTask
from .errors import GroundingBlowupError
from .model import ApplicabilityIndex
from .ppddl import ActionSchema, Atom, DomainSchema, ProblemDef

# bindings the grounding join visits over all schemas, partial ones included
BINDING_CAP = 10 ** 6
# joint outcomes over all ground actions; an action has one per combination
# of its clauses' outcomes
OUTCOME_CAP = 10 ** 6


@dataclass(frozen=True)
class GroundOutcome:
    """One joint outcome of a ground action.

    ``choice`` holds the per-clause outcome indices this outcome was built
    from (indices into each clause's outcomes, the residual no-op of a
    clause among them).
    """

    probability: Fraction
    probability_f: float
    add_mask: int
    del_mask: int
    choice: tuple[int, ...]


@dataclass
class GroundAction:
    id: int
    name: str
    schema_name: str
    pre_pos_mask: int
    pre_neg_mask: int
    outcomes: list[GroundOutcome]


@dataclass
class GroundedProblem:
    """A factored stochastic shortest path problem over ground atoms; a
    state, ``initial_state`` included, is an ``int`` bitset over ``atoms``.

    Preconditions omit the static atoms, the ``:init`` atoms that no
    outcome adds or deletes: they hold in every state reachable from
    ``:init``, so every layer is exact on those states. An action's ``id``
    is its index in the grounded problem's ``actions``. A problem derived
    by ``dataclasses.replace``, such as a reduced model's ``det_problem``,
    keeps the ids: they need not be its actions' positions there.
    """

    problem_name: str
    schema: DomainSchema
    atoms: tuple[str, ...]
    actions: list[GroundAction]
    initial_state: int
    goal_mask: int

    @cached_property
    def applicability(self) -> ApplicabilityIndex:
        return ApplicabilityIndex(self.actions, self.atoms, self.initial_state)

    @cached_property
    def relaxed_task(self) -> RelaxedTask:
        """All-outcomes delete relaxation (every outcome a separate action),
        built on first use and kept with the problem: the solver's heuristic
        on a base problem, the sub-planner's on a ``det_problem``."""
        entries = [(a.id, a.pre_pos_mask, o.add_mask)
                   for a in self.actions for o in a.outcomes if o.add_mask]
        return RelaxedTask(self.atoms, entries, self.goal_mask,
                           self.initial_state)

    def atom_names(self, bits: int) -> list[str]:
        """True atoms of a state, in universe (sorted-name) order."""
        return [name for i, name in enumerate(self.atoms) if bits >> i & 1]


def _atom_key(atom: Atom) -> str:
    return str(atom)


def _bind(atom: Atom, env: dict[str, str]) -> str:
    args = tuple(env.get(a, a) for a in atom.args)
    return _atom_key(Atom(atom.pred, args))


def _static_bindings(action: ActionSchema, domains: list[list[str]],
                     init: tuple[Atom, ...], static: set[str],
                     visit=lambda n: None):
    """Yield, in ``product(*domains)`` order, the bindings under which each
    positive precondition of a static predicate is an ``:init`` fact. Such
    an atom is checked where its last parameter is bound, through an index
    of the facts it matches keyed by its other parameters' values.
    ``visit(n)`` is told of the ``n`` bindings, partial or whole, that each
    step of the join is about to extend or yield; past the last checked
    parameter, of all those of the rest of the join at once."""
    position = {var: i for i, (var, _) in enumerate(action.parameters)}
    checks: list[list] = [[] for _ in domains]  # per depth: (keys, index)
    for lit in action.precondition:
        if lit.negated or lit.atom.pred not in static:
            continue
        params = [position.get(arg) for arg in lit.atom.args]
        depth = max((p for p in params if p is not None), default=None)
        if depth is None:  # nullary or constants only
            if lit.atom not in init:
                return
            continue
        keys = sorted(set(params) - {None, depth})
        index: dict[tuple[str, ...], set[str]] = {}
        for fact in init:
            env: dict[int, str] = {}
            if fact.pred == lit.atom.pred and len(fact.args) == len(params) and all(
                    env.setdefault(p, v) == v if p is not None else arg == v
                    for p, arg, v in zip(params, lit.atom.args, fact.args)):
                index.setdefault(tuple(env[p] for p in keys), set()).add(env[depth])
        checks[depth].append((keys, index))

    free = len(domains)  # the parameters from ``free`` on have no check
    while free and not checks[free - 1]:
        free -= 1

    def extend(prefix: tuple[str, ...]):
        if len(prefix) == free:
            # the join visits a product of domain sizes below here: report
            # all of it before yielding any
            visits, size = 0, 1
            for values in domains[free:]:
                size *= len(values)
                visits += size
            visit(visits)
            for rest in product(*domains[free:]):
                yield prefix + rest
            return
        values = domains[len(prefix)]
        for keys, index in checks[len(prefix)]:
            allowed = index.get(tuple(prefix[p] for p in keys), ())
            values = [v for v in values if v in allowed]
        visit(len(values))
        for value in values:
            yield from extend(prefix + (value,))

    yield from extend(())


@dataclass
class _Candidate:
    schema: ActionSchema
    name: str
    pre_pos: frozenset[str]
    pre_neg: frozenset[str]
    # per clause: list of (choice index, probability, add keys, del keys)
    clause_outcomes: list[list[tuple[int, Fraction, tuple[str, ...], tuple[str, ...]]]]


def _instantiate(schema: ActionSchema, binding: tuple[str, ...]) -> _Candidate | None:
    env = {var: obj for (var, _), obj in zip(schema.parameters, binding)}
    for a, b, must_equal in schema.equalities:
        va, vb = env.get(a, a), env.get(b, b)
        if (va == vb) != must_equal:
            return None
    pre_pos = frozenset(_bind(l.atom, env) for l in schema.precondition if not l.negated)
    pre_neg = frozenset(_bind(l.atom, env) for l in schema.precondition if l.negated)
    clause_outcomes = []
    for clause in schema.clauses:
        rows = []
        for idx, outcome in enumerate(clause):
            add = tuple(_bind(a, env) for a in outcome.add)
            dele = tuple(_bind(a, env) for a in outcome.delete)
            rows.append((idx, outcome.probability, add, dele))
        clause_outcomes.append(rows)
    args = " ".join(binding)
    name = f"({schema.name} {args})" if args else f"({schema.name})"
    return _Candidate(schema, name, pre_pos, pre_neg, clause_outcomes)


def _relaxed_reachable(candidates: list[_Candidate], init: set[str]) -> set[str]:
    """Delete-relaxation fixpoint over all outcomes of all candidates.

    Negative preconditions are treated as free, which keeps the resulting
    pruning sound (an over-approximation of reachability).
    """
    reached = set(init)
    pending = list(candidates)
    changed = True
    while changed:
        changed = False
        remaining = []
        for cand in pending:
            if cand.pre_pos <= reached:
                for rows in cand.clause_outcomes:
                    for _, _, add, _ in rows:
                        for key in add:
                            if key not in reached:
                                reached.add(key)
                                changed = True
            else:
                remaining.append(cand)
        pending = remaining
    return reached


def ground(schema: DomainSchema, problem: ProblemDef) -> GroundedProblem:
    """Ground a domain/problem pair into a GroundedProblem.

    Action order is deterministic: lexicographic by schema name, then by
    binding. Only bindings that satisfy the static preconditions are
    instantiated (see ``_static_bindings``); an atom no outcome adds is
    relaxed-reachable iff it is in ``:init``, so the result is the one the
    full product would give. Raises GroundingBlowupError as soon as the
    join has visited more than ``BINDING_CAP`` bindings over all schemas,
    partial ones included, before any of them is instantiated, and when
    the actions kept would have more than ``OUTCOME_CAP`` joint outcomes
    in all, before any is built.
    """
    objects = sorted(problem.objects)
    visited = 0

    def visit(n: int) -> None:
        nonlocal visited
        visited += n
        if visited > BINDING_CAP:
            raise GroundingBlowupError(
                f"the grounding join exceeds its cap of {BINDING_CAP} "
                f"candidate bindings")

    added = {atom.pred for action in schema.action_schemas
             for clause in action.clauses for o in clause
             for atom in o.add}
    static = {lit.atom.pred for action in schema.action_schemas
              for lit in action.precondition} - added
    joined = []
    for action in sorted(schema.action_schemas, key=lambda a: a.name):
        domains = [[obj for obj, otype in objects
                    if schema.is_subtype(otype, tname)]
                   for _, tname in action.parameters]
        joined.append((action, list(_static_bindings(
            action, domains, problem.init, static, visit))))
    candidates: list[_Candidate] = []
    for action, bindings in joined:
        for binding in bindings:
            cand = _instantiate(action, binding)
            if cand is not None:
                candidates.append(cand)

    init_keys = {_atom_key(a) for a in problem.init}
    reached = _relaxed_reachable(candidates, init_keys)
    candidates = [c for c in candidates if c.pre_pos <= reached]
    outcomes = sum(prod(map(len, cand.clause_outcomes)) for cand in candidates)
    if outcomes > OUTCOME_CAP:
        raise GroundingBlowupError(
            f"the ground actions have {outcomes} joint outcomes, over the "
            f"cap of {OUTCOME_CAP}")

    universe: set[str] = set(init_keys)
    universe.update(_atom_key(a) for a in problem.goal)
    changed: set[str] = set()  # the atoms some outcome adds or deletes
    for cand in candidates:
        universe.update(cand.pre_pos)
        universe.update(cand.pre_neg)
        for rows in cand.clause_outcomes:
            for _, _, add, dele in rows:
                changed.update(add)
                changed.update(dele)
    universe |= changed
    static_atoms = init_keys - changed

    atoms = tuple(sorted(universe))
    index = {name: i for i, name in enumerate(atoms)}

    def mask(keys) -> int:
        bits = 0
        for key in keys:
            bits |= 1 << index[key]
        return bits

    actions: list[GroundAction] = []
    for cand in candidates:
        outcomes: list[GroundOutcome] = []
        for combo in product(*cand.clause_outcomes):
            p = Fraction(1)
            add_mask = 0
            del_mask = 0
            choice = []
            for idx, prob, add, dele in combo:
                p *= prob
                add_mask |= mask(add)
                del_mask |= mask(dele)
                choice.append(idx)
            del_mask &= ~add_mask  # add wins when clauses conflict
            outcomes.append(GroundOutcome(p, float(p), add_mask, del_mask,
                                          tuple(choice)))
        assert sum(o.probability for o in outcomes) == 1
        actions.append(GroundAction(
            id=len(actions),
            name=cand.name,
            schema_name=cand.schema.name,
            pre_pos_mask=mask(cand.pre_pos - static_atoms),
            pre_neg_mask=mask(cand.pre_neg),
            outcomes=outcomes,
        ))

    return GroundedProblem(
        problem_name=problem.name,
        schema=schema,
        atoms=atoms,
        actions=actions,
        initial_state=mask(init_keys),
        goal_mask=mask(_atom_key(a) for a in problem.goal),
    )
