"""PPDDL-subset front end: reader and domain/problem parser.

Supported subset: :strips, :typing, :equality, :negative-preconditions and
flat :probabilistic-effects. Conditional effects, quantifiers, rewards,
fluents, axioms and domain constants are rejected with a named-feature error.
``(= a b)`` and ``(not (= a b))`` take two terms, in preconditions only; a
type declared twice must name the same parent. Probabilities are kept as
exact rationals end to end. Each clause of an action's effect is parsed
into a complete distribution: mass its outcomes leave unassigned becomes
an explicit empty (no-op) outcome, listed last.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import ParseError, TypeMismatchError, UnsupportedFeatureError

ROOT_TYPE = "object"

# a newline, a parenthesis, a comment, a word, or (last) any whitespace
# character other than space, tab and carriage return, which is stray
_TOKEN_RE = re.compile(r"\n|[()]|;[^\n]*|[^\s();]+|[^ \t\r]")
# a decimal, or a fraction whose denominator is not zero
_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$|^\d+/0*[1-9]\d*$")
MAX_NESTING = 100  # bounds the depth of the recursive walks over a form


@dataclass(frozen=True)
class Token:
    value: str
    line: int
    col: int


class _Form(list):
    """A parenthesized form; ``open`` is its '(' Token."""

    __slots__ = ("open",)


def read_sexps(text: str, filename: str = "<input>") -> list:
    """Read PPDDL text into nested forms whose leaves are word Tokens.

    Words are case-insensitive and lowercased here; ';' starts a comment
    running to end of line. A stray character is reported before any
    unbalanced parenthesis, wherever the two lie in the text; a form nested
    deeper than ``MAX_NESTING`` at its opening parenthesis.
    """
    stack: list[list] = [[]]
    unbalanced = None
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        word = m.group()
        if word == "\n":
            line += 1
            line_start = m.end()
            continue
        if word[0] == ";":
            continue
        tok = Token(word.lower(), line, m.start() - line_start + 1)
        if word.isspace():
            raise ParseError(f"stray character {word!r}", filename, tok.line, tok.col)
        if word == "(":
            if len(stack) > MAX_NESTING:
                raise ParseError(f"form nested deeper than {MAX_NESTING} levels",
                                 filename, tok.line, tok.col)
            stack.append(_Form())
            stack[-1].open = tok
        elif word == ")":
            if len(stack) > 1:
                done = stack.pop()
                stack[-1].append(done)
            elif unbalanced is None:
                unbalanced = tok
        else:
            stack[-1].append(tok)
    if unbalanced is not None:
        raise ParseError("unbalanced ')'", filename, unbalanced.line, unbalanced.col)
    if len(stack) > 1:
        tok = stack[-1].open
        raise ParseError("unclosed '('", filename, tok.line, tok.col)
    return stack[0]


# ── schema-level AST ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Atom:
    """A (possibly lifted) predicate application."""

    pred: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"({self.pred})"
        return f"({self.pred} {' '.join(self.args)})"


@dataclass(frozen=True)
class Literal:
    atom: Atom
    negated: bool = False


@dataclass(frozen=True)
class Outcome:
    """One effect alternative: probability plus add/delete lists."""

    probability: Fraction
    add: tuple[Atom, ...] = ()
    delete: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type) pairs


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action. Each clause is a tuple of mutually exclusive
    outcomes whose probabilities sum to exactly 1; a residual no-op, when
    there is one, is an explicit empty outcome, and last."""

    name: str
    parameters: tuple[tuple[str, str], ...]  # (variable, type) pairs
    precondition: tuple[Literal, ...]
    clauses: tuple[tuple[Outcome, ...], ...]
    # (a, b, must_equal) filters from :equality; a/b are variables or objects
    equalities: tuple[tuple[str, str, bool], ...] = ()


@dataclass(frozen=True)
class DomainSchema:
    name: str
    types: dict[str, str]  # type -> parent type
    predicates: tuple[Predicate, ...]
    action_schemas: tuple[ActionSchema, ...]

    def predicate(self, name: str) -> Predicate | None:
        for p in self.predicates:
            if p.name == name:
                return p
        return None

    def is_subtype(self, t: str, ancestor: str) -> bool:
        if ancestor == ROOT_TYPE:
            return True
        seen = set()
        while True:
            if t == ancestor:
                return True
            if t == ROOT_TYPE or t not in self.types or t in seen:
                return False
            seen.add(t)
            t = self.types[t]


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type) pairs
    init: tuple[Atom, ...]
    goal: tuple[Atom, ...]


# ── parsing helpers ──────────────────────────────────────────────────────────

_UNSUPPORTED_HEADS = {
    "when", "forall", "exists", "imply", "or", "oneof",
    "increase", "decrease", "assign", "scale-up", "scale-down",
}


class _Ctx:
    def __init__(self, filename: str):
        self.filename = filename
        self.seen: set[str] = set()

    def fail(self, message: str, at=None, error=ParseError) -> ParseError:
        """An error at the first token of ``at``, or else at its '(' if
        ``at`` is a form of the text, such as ``()``."""
        tok = _first_token(at) or getattr(at, "open", None)
        position = (tok.line, tok.col) if tok is not None else ()
        return error(message, self.filename, *position)

    def unsupported(self, feature: str, at=None) -> UnsupportedFeatureError:
        return self.fail(feature, at, UnsupportedFeatureError)

    def once(self, what: str, at) -> None:
        """Raise on a second ``what``: it would replace or shadow the first."""
        if what in self.seen:
            raise self.fail(f"duplicate {what}", at)
        self.seen.add(what)


def _first_token(node):
    if isinstance(node, Token):
        return node
    if isinstance(node, list):
        for item in node:
            tok = _first_token(item)
            if tok is not None:
                return tok
    return None


def _word(node, ctx: _Ctx, what: str) -> str:
    if not isinstance(node, Token):
        raise ctx.fail(f"expected {what}", node)
    return node.value


def _head(node) -> str:
    """The leading word of a form, or '' for a word, ``()`` or a list head."""
    if isinstance(node, list) and node and isinstance(node[0], Token):
        return node[0].value
    return ""


def _parse_typed_list(items: list, ctx: _Ctx, *, variables: bool) -> list[tuple[str, str]]:
    """Parse ``a b - t c d - u e`` into (name, type) pairs; default type
    object. Each ``-`` needs one or more names before it."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    nodes = iter(items)
    for node in nodes:
        if isinstance(node, list):
            raise ctx.unsupported("either", node)
        word = node.value
        if word == "-":
            if not pending:
                raise ctx.fail("expected a name before '-'", node)
            tnode = next(nodes, None)
            if tnode is None:
                raise ctx.fail("expected type after '-'", node)
            if isinstance(tnode, list):
                raise ctx.unsupported("either", tnode)
            out.extend((name, tnode.value) for name in pending)
            pending = []
        elif variables and not word.startswith("?"):
            raise ctx.fail(f"expected variable, got {word!r}", node)
        elif not variables and word.startswith("?"):
            raise ctx.fail(f"unexpected variable {word!r}", node)
        else:
            pending.append(word)
    out.extend((name, ROOT_TYPE) for name in pending)
    return out


def _parse_atom(node, ctx: _Ctx) -> Atom:
    if not isinstance(node, list) or not node:
        raise ctx.fail("expected atom", node)
    head = _word(node[0], ctx, "predicate name")
    if head in _UNSUPPORTED_HEADS:
        raise ctx.unsupported(head, node)
    args = tuple(_word(a, ctx, "argument") for a in node[1:])
    return Atom(head, args)


def _conjuncts(node):
    """Yield the conjuncts of a formula; a bare form is its own conjunct."""
    if _head(node) == "and":
        for sub in node[1:]:
            yield from _conjuncts(sub)
    else:
        yield node


def _literals(node, ctx: _Ctx, what: str):
    """Yield (negated, form) per conjunct, reading ``(not X)`` as (True, X)."""
    for form in _conjuncts(node):
        if not isinstance(form, list) or not form:
            raise ctx.fail(f"expected {what}", form)
        if _head(form) != "not":
            yield False, form
        elif len(form) != 2 or not isinstance(form[1], list):
            raise ctx.fail("malformed (not ...)", form)
        else:
            yield True, form[1]


def _parse_precondition(node, ctx: _Ctx):
    literals: list[Literal] = []
    equalities: list[tuple[str, str, bool]] = []
    for negated, form in _literals(node, ctx, "precondition literal"):
        if _head(form) != "=":
            literals.append(Literal(_parse_atom(form, ctx), negated))
        elif len(form) != 3:
            raise ctx.fail("malformed (= ...)", form)
        else:
            a = _word(form[1], ctx, "term")
            b = _word(form[2], ctx, "term")
            equalities.append((a, b, not negated))
    return tuple(literals), tuple(equalities)


def _parse_probability(tok, ctx: _Ctx) -> Fraction:
    word = _word(tok, ctx, "probability")
    if not _NUMBER_RE.match(word):
        raise ctx.fail(f"expected probability, got {word!r}", tok)
    try:
        p = Fraction(word)
    except ValueError:  # past the interpreter's limit on integer digits
        raise ctx.fail(f"probability of {len(word)} characters has too many "
                       f"digits", tok) from None
    if p > 1:  # the pattern admits no sign
        raise ctx.fail(f"probability {word} outside [0, 1]", tok)
    return p


def _effect_literals(node, ctx: _Ctx, clauses: list[list[tuple]] | None):
    """Split an effect conjunction into add and delete lists. At the top of
    an action effect (``clauses`` given) each ``probabilistic`` conjunct is
    appended to ``clauses`` as (p, adds, dels) outcomes; inside an outcome
    (``clauses`` None) it is rejected as nested."""
    adds: list[Atom] = []
    dels: list[Atom] = []
    what = "effect literal" if clauses is None else "effect"
    for negated, form in _literals(node, ctx, what):
        if negated:
            dels.append(_parse_atom(form, ctx))
        elif _head(form) != "probabilistic":
            adds.append(_parse_atom(form, ctx))
        elif clauses is None:
            raise ctx.unsupported("nested probabilistic", form)
        elif len(form) % 2 == 0:
            raise ctx.fail("probabilistic effect needs (p effect) pairs", form)
        else:
            outcomes = []
            for i in range(1, len(form), 2):
                p = _parse_probability(form[i], ctx)
                outcome = (p, *_effect_literals(form[i + 1], ctx, None))
                if p > 0:  # zero-probability outcomes are dropped
                    outcomes.append(outcome)
            total = sum(p for p, _, _ in outcomes)
            if total > 1:
                raise ctx.fail(f"outcome probabilities sum to {total} > 1", form)
            clauses.append(outcomes)
    return adds, dels


def _outcome(p: Fraction, adds: list[Atom], dels: list[Atom]) -> Outcome:
    """Deduplicate and make add/delete disjoint (add wins on conflict)."""
    add = tuple(dict.fromkeys(adds))
    return Outcome(p, add, tuple(a for a in dict.fromkeys(dels) if a not in add))


def _parse_effect(node, ctx: _Ctx) -> tuple[tuple[Outcome, ...], ...]:
    """Parse an action effect into clauses, each a complete distribution.

    A clause whose probabilities sum below 1 gets the residual mass as a
    last, empty outcome. Deterministic conjuncts are then folded into every
    outcome of the first clause, so that, e.g., a move action with one
    0.5-probability side effect presents as a single clause with two 0.5
    outcomes. A fully deterministic effect becomes one clause with a single
    probability-1 outcome.
    """
    clauses: list[list[tuple]] = []
    det_adds, det_dels = _effect_literals(node, ctx, clauses)
    for outcomes in clauses:
        residual = 1 - sum((p for p, _, _ in outcomes), Fraction(0))
        if residual:
            outcomes.append((residual, [], []))
    first = clauses[0] if clauses else [(Fraction(1), [], [])]
    clauses[:1] = [[(p, adds + det_adds, dels + det_dels)
                    for p, adds, dels in first]]
    return tuple(tuple(_outcome(*o) for o in c) for c in clauses)


def _check_atom(schema: DomainSchema, atom: Atom, where: str, fail) -> Predicate:
    """Raise ``fail(message)`` unless the atom's predicate and arity are declared."""
    pred = schema.predicate(atom.pred)
    if pred is None:
        raise fail(f"undeclared predicate {atom.pred!r} in {where}")
    if len(pred.params) != len(atom.args):
        raise fail(
            f"predicate {atom.pred!r} used with arity {len(atom.args)} "
            f"(declared {len(pred.params)}) in {where}")
    return pred


def _read_define(text: str, filename: str, kind: str):
    """Read ``(define (<kind> <name>) <section>...)`` into the error context,
    the name and a generator of (keyword, section) pairs."""
    forms = read_sexps(text, filename)
    ctx = _Ctx(filename)
    if len(forms) != 1 or not isinstance(forms[0], list):
        raise ctx.fail("expected a single (define ...) form", forms)
    top = forms[0]
    if len(top) < 2 or _word(top[0], ctx, "define") != "define":
        raise ctx.fail("expected (define ...)", top)
    head = top[1]
    if _head(head) != kind or len(head) != 2:
        raise ctx.fail(f"expected ({kind} <name>)", head)
    name = _word(head[1], ctx, f"{kind} name")

    def sections():
        for section in top[2:]:
            if not isinstance(section, list) or not section:
                raise ctx.fail(f"expected a {kind} section", section)
            yield _word(section[0], ctx, "section keyword"), section

    return ctx, name, sections()


# ── domain / problem parsing ────────────────────────────────────────────────

def parse_domain(text: str, filename: str = "<domain>") -> DomainSchema:
    """Parse PPDDL domain text into a DomainSchema.

    Raises ParseError (with position) on malformed input and
    UnsupportedFeatureError on constructs outside the subset.
    """
    ctx, name, sections = _read_define(text, filename, "domain")
    types: dict[str, str] = {}
    predicates: list[Predicate] = []
    actions: list[ActionSchema] = []
    action_sections: list[list] = []

    for key, section in sections:
        if key == ":requirements":
            ctx.once(f"{key} section", section[0])
            for t in section[1:]:
                _word(t, ctx, "requirement")
        elif key == ":types":
            for tname, parent in _parse_typed_list(section[1:], ctx, variables=False):
                if types.setdefault(tname, parent) != parent:
                    raise ctx.fail(f"type {tname!r} declared with parents "
                                   f"{types[tname]!r} and {parent!r}", section)
            _check_type_hierarchy(types, ctx, section)
        elif key == ":predicates":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    raise ctx.fail("expected predicate declaration", form)
                pname = _word(form[0], ctx, "predicate name")
                params = tuple(_parse_typed_list(form[1:], ctx, variables=True))
                ctx.once(f"predicate {pname!r}", form)
                predicates.append(Predicate(pname, params))
        elif key == ":action":
            actions.append(_parse_action(section, ctx, types))
            action_sections.append(section)
        else:
            raise ctx.unsupported(key, section)

    schema = DomainSchema(name, types, tuple(predicates), tuple(actions))
    _check_schema(schema, ctx, action_sections)
    return schema


def _check_type_hierarchy(types: dict[str, str], ctx: _Ctx, at) -> None:
    for start in types:
        seen = {start}
        t = types[start]
        while t in types:
            if t in seen:
                raise ctx.fail(f"type hierarchy cycle through {t!r}", at)
            seen.add(t)
            t = types[t]


def _parse_action(section: list, ctx: _Ctx, types: dict[str, str]) -> ActionSchema:
    if len(section) < 2:
        raise ctx.fail("expected action name", section)
    name = _word(section[1], ctx, "action name")
    ctx.once(f"action {name!r}", section[1])
    params: tuple[tuple[str, str], ...] = ()
    precondition: tuple[Literal, ...] = ()
    equalities: tuple[tuple[str, str, bool], ...] = ()
    clauses = ((Outcome(Fraction(1)),),)
    for i in range(2, len(section), 2):
        key = _word(section[i], ctx, "action keyword")
        if i + 1 >= len(section):
            raise ctx.fail(f"missing body after {key}", section[i])
        ctx.once(f"{key} in action {name!r}", section[i])
        body = section[i + 1]
        if key == ":parameters":
            if not isinstance(body, list):
                raise ctx.fail("expected parameter list", body)
            params = tuple(_parse_typed_list(body, ctx, variables=True))
        elif key == ":precondition":
            precondition, equalities = _parse_precondition(body, ctx)
        elif key == ":effect":
            clauses = _parse_effect(body, ctx)
        else:
            raise ctx.unsupported(key, section[i])
    variables = [v for v, _ in params]
    if len(set(variables)) != len(variables):
        raise ctx.fail(f"duplicate parameter in action {name!r}", section)
    for _, tname in params:
        if tname != ROOT_TYPE and tname not in types:
            raise ctx.fail(f"undeclared type {tname!r} in action {name!r}", section)
    return ActionSchema(name, params, precondition, clauses, equalities)


def _check_schema(schema: DomainSchema, ctx: _Ctx, sections: list[list]) -> None:
    """Check each action's atoms against the declarations; errors point at
    the action's section."""
    for action, section in zip(schema.action_schemas, sections):
        declared = {v for v, _ in action.parameters}
        where = f"action {action.name!r}"
        fail = partial(ctx.fail, at=section)

        def check_bound(terms) -> None:
            for term in terms:
                if term.startswith("?") and term not in declared:
                    raise fail(f"unbound variable {term!r} in {where}")

        for lit in action.precondition:
            _check_atom(schema, lit.atom, where, fail)
            check_bound(lit.atom.args)
        for a, b, _ in action.equalities:
            check_bound((a, b))
        for clause in action.clauses:
            for outcome in clause:
                for atom in outcome.add + outcome.delete:
                    _check_atom(schema, atom, where, fail)
                    check_bound(atom.args)


def parse_problem(text: str, schema: DomainSchema,
                  filename: str = "<problem>") -> ProblemDef:
    """Parse PPDDL problem text and type-check it against the domain schema."""
    ctx, name, sections = _read_define(text, filename, "problem")
    domain_name = ""
    objects: tuple[tuple[str, str], ...] = ()
    init: list[Atom] = []
    goal: list[Atom] = []
    # a section keyword or an :init/:goal atom -> where its errors point
    at: dict = {}

    for key, section in sections:
        at.setdefault(key, section)
        if key != ":init":  # repeated :init sections merge
            ctx.once(f"{key} section", section[0])
        if key in (":domain", ":goal") and len(section) != 2:
            raise ctx.fail(f"expected one body after {key}", section)
        if key == ":domain":
            domain_name = _word(section[1], ctx, "domain name")
        elif key == ":objects":
            objects = tuple(_parse_typed_list(section[1:], ctx, variables=False))
        elif key == ":init":
            for form in section[1:]:
                if not isinstance(form, list) or not form:
                    raise ctx.fail("expected init atom", form)
                if _head(form) in ("not", "probabilistic", "="):
                    raise ctx.unsupported(f"{_head(form)} in :init", form)
                init.append(_parse_atom(form, ctx))
                at.setdefault(init[-1], form)
        elif key == ":goal":
            for form in _conjuncts(section[1]):
                if not isinstance(form, list):
                    raise ctx.fail("expected goal atom", form)
                if _head(form) == "not":
                    raise ctx.unsupported("negative goal", form)
                if form:  # an empty conjunct is vacuous
                    goal.append(_parse_atom(form, ctx))
                    at.setdefault(goal[-1], form)
        else:
            raise ctx.unsupported(key, section)

    problem = ProblemDef(name, domain_name, objects, tuple(dict.fromkeys(init)),
                         tuple(dict.fromkeys(goal)))
    _check_problem(problem, schema, ctx, at)
    return problem


def _check_problem(problem: ProblemDef, schema: DomainSchema, ctx: _Ctx,
                   at: dict) -> None:
    """Type-check a problem against its domain; errors point at the
    offending section or :init/:goal atom (``at``)."""
    def mismatch(message: str, key) -> TypeMismatchError:
        return ctx.fail(message, at.get(key), TypeMismatchError)

    if problem.domain_name and problem.domain_name != schema.name:
        raise mismatch(
            f"problem {problem.name!r} references domain {problem.domain_name!r}, "
            f"expected {schema.name!r}", ":domain")
    obj_types: dict[str, str] = {}
    for obj, tname in problem.objects:
        if obj in obj_types:
            raise mismatch(f"duplicate object {obj!r}", ":objects")
        if tname != ROOT_TYPE and tname not in schema.types:
            raise mismatch(f"object {obj!r} has undeclared type {tname!r}",
                           ":objects")
        obj_types[obj] = tname

    for where, atoms in ((":init", problem.init), (":goal", problem.goal)):
        for atom in atoms:
            fail = partial(mismatch, key=atom)
            pred = _check_atom(schema, atom, where, fail)
            for arg, (_, ptype) in zip(atom.args, pred.params):
                if arg not in obj_types:
                    raise fail(f"undeclared object {arg!r} in {where}")
                if not schema.is_subtype(obj_types[arg], ptype):
                    raise fail(
                        f"object {arg!r} of type {obj_types[arg]!r} where "
                        f"{ptype!r} expected in {where}")
