"""States over the grounded atom universe, as ``int`` bitsets (bit ``i``
set iff atom ``i`` is true), and successor generation."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .errors import NotApplicableError

if TYPE_CHECKING:
    from .grounding import GroundedProblem

# (state bits, probability) pairs summing to 1; duplicates merged
SuccessorDistribution = list[tuple[int, float]]


def iter_bits(x: int):
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def predicate_of(atom_name: str) -> str:
    """The predicate of a ground atom name such as ``(road l-1-1 l-1-2)``."""
    return atom_name.strip("()").split()[0]


class ApplicabilityIndex:
    """Finds the actions applicable in a state without scanning them all.

    Each action is keyed by one positive precondition atom: the atom whose
    predicate has the fewest true atoms in ``init_bits``, then the one
    fewest actions use, then the lowest index: a predicate with one true
    atom in ``:init``, such as a position, usually keeps one true atom, so
    its actions are the ones worth checking. Actions without a positive
    precondition are always checked. A lookup gathers the actions keyed by
    the atoms true in ``bits``, puts them back in list order and checks
    each full precondition, so it returns exactly what a scan of
    ``actions`` would, on any bitset.
    """

    def __init__(self, actions: list, atom_names: tuple[str, ...],
                 init_bits: int):
        self.actions = actions
        predicate = [predicate_of(name) for name in atom_names]
        in_init = Counter(predicate[atom] for atom in iter_bits(init_bits))
        users = Counter(atom for a in actions
                        for atom in iter_bits(a.pre_pos_mask))
        self.unkeyed: list[int] = []
        self.keyed: dict[int, list[int]] = {}
        for i, a in enumerate(actions):
            fluents = list(iter_bits(a.pre_pos_mask))
            if not fluents:
                self.unkeyed.append(i)
                continue
            key = min(fluents, key=lambda atom: (in_init[predicate[atom]],
                                                 users[atom], atom))
            self.keyed.setdefault(1 << key, []).append(i)
        self.key_mask = sum(self.keyed)

    def applicable(self, bits: int) -> list:
        """The actions whose precondition holds in ``bits``, in list order."""
        found = self.unkeyed[:]
        keys = bits & self.key_mask
        while keys:
            low = keys & -keys
            keys ^= low
            found += self.keyed[low]
        found.sort()
        actions = self.actions
        result = []
        for i in found:
            a = actions[i]
            if bits & a.pre_pos_mask == a.pre_pos_mask and not bits & a.pre_neg_mask:
                result.append(a)
        return result


def applicable_actions(bits: int, p: GroundedProblem) -> list[int]:
    """Ids of the actions applicable in ``bits``, in grounding order."""
    return [a.id for a in p.applicability.applicable(bits)]


def outcome_bits(bits: int, action_id: int, p: GroundedProblem) -> list[int]:
    """The successor bits of each outcome of one action in ``bits``,
    delete-then-add, in outcome order; raises if the action is not
    applicable. ``p`` is a grounded base problem, whose action ids are
    positions; a ``det_problem`` leaves actions out, so its are not."""
    a = p.actions[action_id]
    if bits & a.pre_pos_mask != a.pre_pos_mask or bits & a.pre_neg_mask:
        raise NotApplicableError(f"action {a.name} not applicable")
    return [(bits & ~o.del_mask) | o.add_mask for o in a.outcomes]


def successors(bits: int, action_id: int,
               p: GroundedProblem) -> SuccessorDistribution:
    """Successor distribution of one action of a base problem, with
    outcomes mapping to the same state merged by summing probabilities."""
    merged: dict[int, float] = {}
    for o, succ in zip(p.actions[action_id].outcomes,
                       outcome_bits(bits, action_id, p)):
        merged[succ] = merged.get(succ, 0.0) + o.probability_f
    return list(merged.items())


def is_goal(bits: int, p: GroundedProblem) -> bool:
    """True iff the goal conjunction is satisfied (vacuously true if empty)."""
    return bits & p.goal_mask == p.goal_mask
