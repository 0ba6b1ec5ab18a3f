"""Reduced models over augmented states (base state, exception count).

A determinization designates one primary outcome per action clause at the
schema level, so it transfers across problem instances of the same domain.
The reduced transition keeps the primary outcome's probability below the
exception bound and routes exceptions to an incremented count; at the
bound it drops the exceptions and gives the primary outcome probability 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import IncompleteDeterminizationError, ParseError
from .grounding import GroundedProblem
from .model import applicable_actions, is_goal, outcome_bits
from .ppddl import DomainSchema

# one determinization entry, ``name/clause -> outcome``, in ASCII digits
_ENTRY_RE = re.compile(r"(\S+)/([0-9]+)[ \t]*->[ \t]*([0-9]+)")
# a comment's ``#`` starts its line or follows a space or a tab, so a
# schema name may hold ``#``
_COMMENT_RE = re.compile(r"(?:^|[ \t])#")


@dataclass(frozen=True)
class Determinization:
    """Primary outcome index per (schema name, clause index).

    Indices address each clause's outcomes, so a clause's residual no-op
    outcome is a valid choice.
    """

    choices: dict[tuple[str, int], int]

    def to_text(self) -> str:
        lines = [f"{name}/{clause} -> {idx}"
                 for (name, clause), idx in sorted(self.choices.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str,
                  filename: str = "<input>") -> "Determinization":
        """Read one ``name/clause -> outcome`` entry per line. A ``#`` at
        the start of a line or after a space or a tab starts a comment that
        runs to the next newline; any other ``#`` is part of the entry. A
        malformed or repeated entry is a ParseError at its
        ``filename:line:col``."""
        choices: dict[tuple[str, int], int] = {}
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = _COMMENT_RE.split(raw, 1)[0].strip()
            if not line:
                continue
            col = len(raw) - len(raw.lstrip()) + 1
            m = _ENTRY_RE.fullmatch(line)
            if m is None:
                raise ParseError(f"bad determinization entry {line!r}",
                                 filename, lineno, col)
            name = m.group(1)
            try:
                clause, idx = int(m.group(2)), int(m.group(3))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError("determinization entry has a number with too "
                                 "many digits", filename, lineno, col) from None
            if (name, clause) in choices:
                raise ParseError(f"repeated determinization entry for "
                                 f"{name}/{clause}", filename, lineno, col)
            choices[name, clause] = idx
        return cls(choices)

    def validate(self, schema: DomainSchema) -> None:
        """Check that the choices name every clause of the domain and nothing
        else, each with an in-range outcome index."""
        clauses = set()
        for action in schema.action_schemas:
            for c, clause in enumerate(action.clauses):
                clauses.add((action.name, c))
                idx = self.choices.get((action.name, c))
                if idx is None:
                    raise IncompleteDeterminizationError(
                        f"no primary outcome for {action.name}/{c}")
                if not 0 <= idx < len(clause):
                    raise IncompleteDeterminizationError(
                        f"outcome index {idx} out of range for {action.name}/{c} "
                        f"({len(clause)} outcomes)")
        unknown = sorted(self.choices.keys() - clauses)
        if unknown:
            name, c = unknown[0]
            raise IncompleteDeterminizationError(
                f"{name}/{c} is not an action clause of domain {schema.name}")


def mlo_determinization(schema: DomainSchema) -> Determinization:
    """Most-likely-outcome determinization (ties break to the lowest index)."""
    choices: dict[tuple[str, int], int] = {}
    for action in schema.action_schemas:
        for c, clause in enumerate(action.clauses):
            best = max(range(len(clause)),
                       key=lambda i: (clause[i].probability, -i))
            choices[(action.name, c)] = best
    return Determinization(choices)


class State(NamedTuple):
    """The base state of a reduced-model key: its ``int`` bitset over atom
    indices. Hashing and equality are the tuple's: bitsets whose hashes
    alias (bits i and i+61) stay distinct keys at the cost of one compare."""

    bits: int


class AugmentedState(NamedTuple):
    """A reduced-model state: a base state and its exception count."""

    state: State
    j: int


class ReducedModel:
    """Lazy reduced model over augmented states.

    ``primary`` gives, per ground action, the index of its one primary
    outcome. ``applicable`` and ``reduced_successors`` compute afresh on
    every call; the model keeps no search state (the solver's tables do).
    """

    def __init__(self, problem: GroundedProblem, k: int, primary: list[int]):
        if k < 0:
            raise ValueError("exception bound k must be >= 0")
        if len(primary) != len(problem.actions):
            raise ValueError("one primary outcome per ground action required")
        self.problem = problem
        self.k = k
        self.primary = primary
        self.initial = AugmentedState(State(problem.initial_state), 0)

    def is_goal(self, aug: AugmentedState) -> bool:
        return is_goal(aug.state.bits, self.problem)

    def applicable(self, aug: AugmentedState) -> list[int]:
        """Applicable actions at an augmented state (the same at every j)."""
        return applicable_actions(aug.state.bits, self.problem)

    def reduced_successors(self, aug: AugmentedState,
                           action_id: int) -> list[tuple[AugmentedState, float]]:
        """Successor distribution over augmented states for one action;
        raises if the action is not applicable."""
        s, j = aug
        succ_bits = outcome_bits(s.bits, action_id, self.problem)
        primary = self.primary[action_id]
        merged: dict[tuple[int, int], float] = {}
        if j >= self.k:
            merged[succ_bits[primary], self.k] = 1.0
        else:
            for idx, o in enumerate(self.problem.actions[action_id].outcomes):
                pair = (succ_bits[idx], j if idx == primary else j + 1)
                merged[pair] = merged.get(pair, 0.0) + o.probability_f
        return [(AugmentedState(State(bits), j2), p)
                for (bits, j2), p in merged.items()]

    @cached_property
    def det_problem(self) -> GroundedProblem:
        """The deterministic problem induced at the exception bound: the
        base problem with each action reduced to its primary outcome, at
        probability 1. An action whose primary outcome is a no-op stays,
        as a self-loop that no plan takes."""
        return replace(self.problem, actions=[
            replace(a, outcomes=[replace(a.outcomes[p], probability=Fraction(1),
                                         probability_f=1.0)])
            for a, p in zip(self.problem.actions, self.primary)])


def make_reduction(problem: GroundedProblem, delta: Determinization,
                   k: int) -> ReducedModel:
    """Build the reduced model for a schema-level determinization.

    A ground action's primary outcome is the joint outcome that takes the
    determinization's choice in each clause of its schema. Its position
    reads those choices as a mixed-radix number over the clauses' outcome
    counts, the order ``ground`` lists the joint outcomes in.
    """
    delta.validate(problem.schema)
    position = {}
    for s in problem.schema.action_schemas:
        pos = 0
        for c, clause in enumerate(s.clauses):
            pos = pos * len(clause) + delta.choices[s.name, c]
        position[s.name] = pos
    return ReducedModel(problem, k,
                        [position[a.schema_name] for a in problem.actions])
