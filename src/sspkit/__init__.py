"""Stochastic shortest path planning toolkit.

Builds reduced models (augmented with an exception count) from factored
probabilistic planning problems in a PPDDL subset, solves them with
heuristic search backed by a classical planner for bound-level states,
executes policies with replanning, and learns the best single-outcome
determinization of a domain by exhaustive search with Monte-Carlo scoring.
"""

from .detplan import PlanResult, solve_deterministic
from .errors import (CapExceededError, EnumerationBlowupError,
                     GroundingBlowupError, IncompleteDeterminizationError,
                     IterationLimitError, NotApplicableError, ParseError,
                     SspkitError, TypeMismatchError, UnsupportedFeatureError)
from .executor import (EvalStats, ReplanSession, RoundReport,
                       monte_carlo_evaluate, serve_rounds)
from .grounding import GroundAction, GroundedProblem, ground
from .learner import (DetCandidate, enumerate_determinizations, learning_det)
from .model import applicable_actions, is_goal, successors
from .oracle import ExplicitModel, enumerate_model, value_iteration
from .ppddl import (ActionSchema, Atom, DomainSchema, Literal, Outcome,
                    Predicate, ProblemDef, parse_domain, parse_problem)
from .reduction import (AugmentedState, Determinization, ReducedModel, State,
                        make_reduction, mlo_determinization)
from .solver import (NOP, SolveReport, SolverConfig, SolverTables,
                     ff_bellman_update, ff_lao_star, ff_sweep,
                     policy_size)

__version__ = "0.1.0"
