"""Exception types shared across the toolkit."""

from __future__ import annotations


class SspkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SspkitError):
    """Malformed PPDDL or determinization-file input. Carries a
    file:line:col position, or only the file (line 0) when no token is at
    hand."""

    def __init__(self, message: str, filename: str = "<input>",
                 line: int = 0, col: int = 0):
        super().__init__(message)
        self.filename = filename
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if not self.line:
            return f"{self.filename}: {self.args[0]}"
        return f"{self.filename}:{self.line}:{self.col}: {self.args[0]}"


class UnsupportedFeatureError(ParseError):
    """Input uses a PPDDL construct outside the supported subset."""

    def __init__(self, feature: str, filename: str = "<input>",
                 line: int = 0, col: int = 0):
        super().__init__(f"unsupported construct: {feature}", filename, line, col)
        self.feature = feature


class TypeMismatchError(ParseError):
    """Object/predicate arity or type violation in a problem file."""


class GroundingBlowupError(SspkitError):
    """The bindings the grounding join visits, partial ones included, or
    the joint outcomes of the ground actions exceeded their cap; it fires
    before any action is built."""


class NotApplicableError(SspkitError):
    """Action applied in a state where its precondition does not hold."""


class IncompleteDeterminizationError(SspkitError):
    """Determinization does not match the domain's action clauses.

    A clause has no primary outcome or an out-of-range one, or a choice
    names something that is not a clause of the domain.
    """


class EnumerationBlowupError(SspkitError):
    """Too many candidate determinizations to enumerate exhaustively.

    ``branching`` maps (schema name, clause index) to that clause's
    outcome count so the caller can see where the blowup comes from.
    """

    def __init__(self, count: int, cap: int, branching: dict):
        super().__init__(
            f"{count} determinizations exceed cap {cap}; "
            "per-clause branching: "
            + ", ".join(f"{s}/{c}={n}" for (s, c), n in sorted(branching.items()))
        )
        self.count = count
        self.cap = cap
        self.branching = branching


class CapExceededError(SspkitError):
    """Explicit state enumeration hit the state cap."""


class IterationLimitError(SspkitError):
    """The search solver or value iteration hit its safety bound on sweeps
    without converging."""


class ExternalPlannerError(SspkitError):
    """External classical planner produced unusable output."""
