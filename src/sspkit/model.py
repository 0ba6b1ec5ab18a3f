"""States over the grounded atom universe and successor generation."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import NotApplicableError

if TYPE_CHECKING:
    from .grounding import GroundedProblem

# (state, probability) pairs summing to 1; duplicates merged
SuccessorDistribution = list[tuple["State", float]]


class State(NamedTuple):
    """An immutable set of true atoms, stored as a bitset over atom indices.
    Hashing and equality are the tuple's: bitsets whose hashes alias (bits
    i and i+61) stay distinct keys at the cost of one compare."""

    bits: int


def applicable_actions(s: State, p: GroundedProblem) -> list[int]:
    """Ids of actions whose precondition holds in ``s``, in grounding order."""
    bits = s.bits
    return [a.id for a in p.actions
            if bits & a.pre_pos_mask == a.pre_pos_mask
            and not bits & a.pre_neg_mask]


def is_applicable(s: State, action_id: int, p: GroundedProblem) -> bool:
    a = p.actions[action_id]
    return (s.bits & a.pre_pos_mask == a.pre_pos_mask
            and not s.bits & a.pre_neg_mask)


def successors(s: State, action_id: int, p: GroundedProblem) -> SuccessorDistribution:
    """Successor distribution of one action: delete-then-add per outcome,
    with outcomes mapping to the same state merged by summing probabilities.
    """
    if not is_applicable(s, action_id, p):
        raise NotApplicableError(
            f"action {p.actions[action_id].name} not applicable")
    merged: dict[int, float] = {}
    bits = s.bits
    for o in p.actions[action_id].outcomes:
        succ = (bits & ~o.del_mask) | o.add_mask
        merged[succ] = merged.get(succ, 0.0) + o.probability_f
    return [(State(b), prob) for b, prob in merged.items()]


def is_goal(s: State, p: GroundedProblem) -> bool:
    """True iff the goal conjunction is satisfied (vacuously true if empty)."""
    return s.bits & p.goal_mask == p.goal_mask
